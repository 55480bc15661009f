package sim

import "time"

// Timer is a reusable one-shot timer: the callback is bound once at
// construction and the timer re-arms without allocating, reusing its single
// embedded Event. Re-arming replaces any pending arming. Unlike the handle
// returned by Schedule — which must be abandoned once it fires — a Timer is
// the sole owner of its event and stays valid across any number of
// arm/fire/stop cycles, which is what lets per-connection RTO, persist and
// TIME_WAIT timers run without per-segment heap churn.
//
// Re-arming takes the pending entry out of the queue and inserts the new
// one. A timer pushed back again and again without firing (the RTO, reset
// on every ACK) sits near the heap's leaves, where both halves are cheap.
//
// The zero value is not usable; construct with Simulator.NewTimer, or
// Clock.NewTimer for a timer a host's crash cancels.
type Timer struct {
	s *Simulator
	// clock, when set (Clock.NewTimer), owns the timer: it lists the
	// timer while armed and cancels it at Clock.Stop.
	clock *Clock
	ev    Event
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
// pending arming. A negative delay is treated as zero. Arming a timer
// whose clock has stopped panics.
//
//sttcp:hotpath
func (t *Timer) Arm(delay time.Duration) {
	if t.clock != nil && t.clock.stopped {
		panic(errStoppedClock)
	}
	t.s.Cancel(&t.ev)
	t.ev.ctx = t.s.ctx
	t.s.enqueue(&t.ev, t.s.after(delay))
	if t.clock != nil {
		t.clock.own(&t.ev)
	}
}

// Stop cancels a pending arming. Stopping a nil or unarmed timer is a
// no-op; the timer may be re-armed afterwards (unless its clock stopped).
//
//sttcp:hotpath
func (t *Timer) Stop() {
	if t != nil {
		t.s.Cancel(&t.ev)
	}
}

// Armed reports whether the timer is scheduled and has not yet fired.
func (t *Timer) Armed() bool { return t.ev.live }
