package sim

import "time"

// Timer is a reusable one-shot timer: the callback is bound once at
// construction and the timer re-arms without allocating, reusing its single
// embedded Event. Re-arming replaces any pending arming. Unlike the handle
// returned by Schedule — which must be abandoned once it fires — a Timer is
// the sole owner of its event and stays valid across any number of
// arm/fire/stop cycles, which is what lets per-connection RTO, persist, and
// delayed-ACK timers run without per-segment heap churn.
//
// Re-arming takes the pending entry out of the queue and inserts the new
// one. A timer pushed back again and again without firing (the RTO, reset
// on every ACK) sits near the heap's leaves, where both halves are cheap.
//
// The zero value is not usable; construct with Simulator.NewTimer.
type Timer struct {
	s  *Simulator
	ev Event
}

// NewTimer returns a timer that runs fn each time it fires. The callback
// runs with the causal context that was ambient when Arm was called.
func (s *Simulator) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer called with nil callback")
	}
	t := &Timer{s: s}
	t.ev.fn = fn
	return t
}

// Arm schedules the callback after delay of virtual time, replacing any
// pending arming. A negative delay is treated as zero.
//
//sttcp:hotpath
func (t *Timer) Arm(delay time.Duration) {
	t.s.Cancel(&t.ev)
	t.ev.ctx = t.s.ctx
	t.s.enqueue(&t.ev, t.s.after(delay))
}

// Stop cancels a pending arming. Stopping an unarmed timer is a no-op; the
// timer may be re-armed afterwards.
//
//sttcp:hotpath
func (t *Timer) Stop() {
	t.s.Cancel(&t.ev)
}

// Armed reports whether the timer is scheduled and has not yet fired.
func (t *Timer) Armed() bool { return t.ev.live }

// When reports the virtual time of the pending arming. It is only
// meaningful while Armed.
func (t *Timer) When() time.Time { return t.ev.When() }
