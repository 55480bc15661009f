// Package tcp is a second corpus stand-in for the TCP stack whose
// Reassembler has lost its drain: the one-window row would hold nothing.
package tcp

type Reassembler struct{} // want `one-window: tcp\.Reassembler declares no drainOOO`

func (r *Reassembler) insertOOO(off int64, p []byte) {}
