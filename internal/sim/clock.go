package sim

import "time"

// Clock scales virtual-time delays for one consumer of the simulator —
// typically one host. The simulator itself keeps a single global timeline;
// a Clock models a machine whose oscillator (or scheduler) runs fast or
// slow relative to that timeline: a rate of 1.05 means every period this
// clock schedules takes 5% longer of global virtual time, which is how
// inter-host clock-rate skew and CPU starvation are injected without
// forking the event queue.
//
// A nil *Clock behaves as the nominal rate-1 clock everywhere, so
// components can carry an optional Clock without nil checks. Rate 1 is an
// exact pass-through: Stretch returns its argument unchanged, so enabling
// the plumbing cannot perturb an unskewed run by even a nanosecond.
type Clock struct {
	s    *Simulator
	rate float64
}

// NewClock returns a clock at nominal rate 1.
func NewClock(s *Simulator) *Clock { return &Clock{s: s, rate: 1} }

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

// NewTicker returns a ticker whose period is stretched by this clock at
// every re-arm, so rate changes mid-run take effect on the next tick.
func (c *Clock) NewTicker(period time.Duration, fn func()) *Ticker {
	t := NewTicker(c.s, period, fn)
	t.clock = c
	// Re-arm the first tick under the clock's current rate.
	t.timer.Arm(c.Stretch(period))
	return t
}
