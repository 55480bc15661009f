package tcp

import "repro/internal/sim"

// SeedRawRTOTimer builds the retransmission timer of every connection
// created from now on on the raw simulator, where a host's crash does not
// stop it, until the returned undo runs: the defect dead-host-silence
// exists to catch.
func SeedRawRTOTimer() (undo func()) {
	prev := newRTOTimer
	newRTOTimer = func(st *Stack, fn func()) *sim.Timer { return st.sim.NewTimer(fn) }
	return func() { newRTOTimer = prev }
}

// Storage reports the bytes of ring and scratch c's two windows hold.
func (c *Conn) Storage() int {
	return cap(c.sb.ring) + cap(c.sb.wrapped) + cap(c.rb.win.ring) + cap(c.rb.win.wrapped)
}

// SendWindow returns c's send buffer.
func (c *Conn) SendWindow() *Window { return c.sb }
