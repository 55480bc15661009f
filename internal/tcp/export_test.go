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
