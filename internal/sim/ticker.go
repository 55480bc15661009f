package sim

import "time"

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// Unlike time.Ticker there is no channel: the callback runs inline on the
// event loop, which is the natural shape for a single-threaded simulation.
// Each tick re-arms a single reusable Timer, so a steady ticker (heartbeats,
// pacing loops) allocates nothing after construction.
type Ticker struct {
	timer   *Timer
	period  time.Duration
	fn      func()
	stopped bool

	// clock, when set (Clock.NewTicker), owns the ticker and stretches
	// the period at each re-arm so the ticker follows its host's skewed
	// timer rate. Nil means the nominal simulator timeline.
	clock *Clock
}

// NewTicker schedules fn to run every period, starting one period from now.
// A non-positive period panics: a zero-period ticker would wedge the event
// loop at a single instant.
func NewTicker(s *Simulator, period time.Duration, fn func()) *Ticker {
	t := newTicker(period, fn)
	t.timer = s.NewTimer(t.tick)
	t.timer.Arm(period)
	return t
}

func newTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	return &Ticker{period: period, fn: fn}
}

// NewDaemonTicker is NewTicker for background instrumentation: its ticks
// fire normally while the simulation has other work, but do not count as
// work themselves, so a perpetually re-arming ticker (telemetry sampling)
// never keeps Run alive after the workload's own event queue drains. This
// is what lets a run with sampling enabled finish at exactly the same
// virtual instant as the same run without it.
func NewDaemonTicker(s *Simulator, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: NewDaemonTicker with non-positive period")
	}
	t := &Ticker{period: period, fn: fn}
	t.timer = s.NewTimer(t.tick)
	t.timer.ev.daemon = true
	t.timer.Arm(period)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	// Re-arm before the callback so the callback may Stop the ticker.
	t.timer.Arm(t.clock.Stretch(t.period))
	t.fn()
}

// Stop cancels future ticks. It is safe to call from within the callback and
// is idempotent.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.timer.Stop()
}
