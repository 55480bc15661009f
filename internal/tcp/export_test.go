package tcp

import "repro/internal/sim"

// SeedRawRTOTimer builds the retransmission timer of every connection
// created from now on on the raw simulator, where a host's crash does not
// stop it, until the returned undo runs: the defect dead-host-silence
// exists to catch.
func SeedRawRTOTimer() (undo func()) {
	prev := initRTOTimer
	initRTOTimer = func(st *Stack, t *sim.Timer, fn func()) { st.sim.InitTimer(t, fn) }
	return func() { initRTOTimer = prev }
}

// Storage reports the bytes of ring and scratch c's two windows hold.
func (c *Conn) Storage() int {
	return cap(c.sb.ring) + cap(c.sb.wrapped) + cap(c.rb.win.ring) + cap(c.rb.win.wrapped)
}

// SendWindow returns c's send buffer.
func (c *Conn) SendWindow() *Window { return &c.sb }

// SendStorage reports the bytes of ring and of scratch c's send buffer
// holds.
func (c *Conn) SendStorage() (ring, scratch int) { return len(c.sb.ring), cap(c.sb.wrapped) }
