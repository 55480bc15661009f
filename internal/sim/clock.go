package sim

import (
	"errors"
	"time"
)

// Clock is one host's view of the simulator: the owner of every timer and
// post the host's software arms, and the rate its oscillator (or
// scheduler) runs at. The simulator keeps a single global timeline; a rate
// of 1.05 means every period the clock stretches takes 5% longer of global
// virtual time, which is how inter-host clock-rate skew and CPU starvation
// are injected without forking the event queue. Stop is a crash: it
// cancels every pending timer and post of the clock, and none of them may
// be armed again.
//
// Rate and Stretch accept a nil *Clock as the nominal rate-1 clock, so a
// component may carry an optional clock for stretching alone; NewTimer,
// AfterFunc, NewTicker, Post and Stop need one from NewClock. Rate 1 is an
// exact pass-through: Stretch returns its argument unchanged, so enabling
// the plumbing cannot perturb an unskewed run by even a nanosecond.
type Clock struct {
	s       *Simulator
	rate    float64
	stopped bool
	// armed is the sentinel of the circular list of this clock's armed
	// timers and posts. An event joins it when armed and leaves it when it
	// fires or is cancelled, so the clock keeps no fired or stopped timer
	// reachable.
	armed Event
}

// errStoppedClock is the panic of arming a timer after its clock stopped:
// software built before a crash must never run again.
var errStoppedClock = errors.New("sim: timer armed on a stopped clock")

// NewClock returns a running clock at nominal rate 1.
func NewClock(s *Simulator) *Clock {
	c := &Clock{s: s, rate: 1}
	c.armed.prev, c.armed.next = &c.armed, &c.armed
	return c
}

// Sim returns the simulator the clock's timers are armed on.
func (c *Clock) Sim() *Simulator { return c.s }

// SetRate changes the clock's rate. Rates must be positive; 1 is nominal,
// >1 runs slow (stretched periods), <1 runs fast. Tickers built on the
// clock pick the new rate up at their next re-arm.
func (c *Clock) SetRate(r float64) {
	if r <= 0 {
		panic("sim: Clock.SetRate with non-positive rate")
	}
	c.rate = r
}

// Rate returns the current rate (1 for a nil clock).
func (c *Clock) Rate() float64 {
	if c == nil {
		return 1
	}
	return c.rate
}

// Stretch converts a nominal duration into this clock's local duration.
// At rate 1 (or on a nil clock) it is the identity, bit-for-bit.
func (c *Clock) Stretch(d time.Duration) time.Duration {
	if c == nil || c.rate == 1 {
		return d
	}
	sd := time.Duration(float64(d) * c.rate)
	if sd <= 0 && d > 0 {
		sd = 1
	}
	return sd
}

// NewTimer returns a timer owned by this clock: Stop cancels it, and
// arming it after Stop panics. Its delays are not stretched; a caller that
// wants the clock's rate applies Stretch itself.
func (c *Clock) NewTimer(fn func()) *Timer {
	t := c.s.NewTimer(fn)
	t.clock = c
	return t
}

// AfterFunc returns a timer owned by this clock, armed to run fn once
// after d.
func (c *Clock) AfterFunc(d time.Duration, fn func()) *Timer {
	t := c.NewTimer(fn)
	t.Arm(d)
	return t
}

// NewTicker returns a ticker owned by this clock whose period is
// stretched at every arming, so rate changes mid-run take effect on the
// next tick.
func (c *Clock) NewTicker(period time.Duration, fn func()) *Ticker {
	t := newTicker(period, fn)
	t.clock = c
	t.timer = c.NewTimer(t.tick)
	t.timer.Arm(c.Stretch(period))
	return t
}

// Post is Simulator.Post owned by the clock: Stop cancels the event if it
// has not fired, and posting after Stop panics. A zero-delay post from a
// running callback (a wake-up) is parked in the simulator's same-instant
// tail instead, and runs in place if nothing else is due at its instant
// (see Simulator.settle); it pops where it would have otherwise.
//
//sttcp:hotpath
func (c *Clock) Post(delay time.Duration, fn func()) {
	if c.stopped {
		panic(errStoppedClock)
	}
	if delay <= 0 && c.s.park(c, fn) {
		return
	}
	c.own(c.s.post(delay, fn))
}

// Stop cancels every pending timer, ticker and post of the clock, in the
// order they were armed, and drops its parked wake-up; arming one
// afterwards panics. Stopping a stopped clock is a no-op.
func (c *Clock) Stop() {
	c.stopped = true
	if c.s.wake.clock == c {
		c.s.wake = wakeup{}
	}
	for c.armed.next != &c.armed {
		c.s.Cancel(c.armed.next)
	}
}

// own appends an armed timer's or post's event to the clock's list.
//
//sttcp:hotpath
func (c *Clock) own(e *Event) {
	last := c.armed.prev
	e.prev, e.next = last, &c.armed
	last.next, c.armed.prev = e, e
}

// disown takes e off its clock's list.
//
//sttcp:hotpath
func (e *Event) disown() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}
