// Package tcp is a corpus stand-in for the TCP stack: the one reassembler,
// the one window, and host software that must arm timers on its clock.
package tcp

import "example.com/vet/internal/sim"

// Reassembler mimics the one out-of-order queue.
type Reassembler struct{ ooo [][]byte }

func (r *Reassembler) insertOOO(off int64, p []byte) {} // the one declaration
func (r *Reassembler) drainOOO(deliver func([]byte)) {}

// Window mimics the one stream store.
type Window struct {
	buf  []byte
	bufs [][]byte
}

// NewWindow mimics the window constructor.
func NewWindow(capacity int) *Window { return &Window{buf: make([]byte, capacity)} }

func (w *Window) shift(n int, other *Window, dst []byte) {
	copy(w.buf[:], w.buf[n:])      // want `one-window: a buffer copies itself down \(copy\(w\.buf\[:\], w\.buf\[n:\]\)\)`
	copy(w.buf, (w.buf)[n:])       // want `one-window: a buffer copies itself down`
	copy(w.bufs[0], w.bufs[0][n:]) // want `one-window: a buffer copies itself down`
	b := w.buf
	copy(b, b[n:])                 // want `one-window: a buffer copies itself down`
	copy(dst, w.buf[n:])           // a copy out of the window
	copy(other.buf, w.buf[n:])     // another window's store
	copy(w.bufs[1], w.bufs[0][n:]) // another element
}

// Stack mimics the TCP stack's timer use.
type Stack struct {
	clock *sim.Clock
	sim   *sim.Simulator
}

func (st *Stack) arm() {
	st.clock.Post(1, func() {})
	st.clock.Sim().Post(1, func() {}) // want `one-clock: sim\.Simulator\.Post used here`
	s := st.sim
	s.Schedule(1, func() {}) // want `one-clock: sim\.Simulator\.Schedule used here`
	at := st.sim.At          // want `one-clock: sim\.Simulator\.At used here`
	at(1, func() {})
	sim.NewTicker(st.sim, 1, nil) // want `one-clock: sim\.NewTicker used here`
}
