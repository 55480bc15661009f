// Package sim is a corpus stand-in for the real simulator: same package
// path suffix, same method names, none of the behavior. Importing it
// marks a corpus package as sim-driven for the simdeterminism analyzer,
// its Simulator/NewRand shapes feed maporder and the allow tests, and its
// Simulator/Clock pair the structure analyzer's one-clock row.
package sim

import "math/rand"

// Simulator mimics the scheduling surface of the real simulator.
type Simulator struct{}

// Schedule mimics delayed scheduling.
func (s *Simulator) Schedule(delay int, fn func()) {}

// At mimics absolute-time scheduling.
func (s *Simulator) At(t int, fn func()) {}

// Post mimics a fire-and-forget event.
func (s *Simulator) Post(delay int, fn func()) {}

// NewTimer mimics an unarmed timer on the simulator.
func (s *Simulator) NewTimer(fn func()) *Timer { return &Timer{} }

// Timer mimics a re-armable timer.
type Timer struct{}

// NewTicker mimics a periodic event on the raw simulator.
func NewTicker(s *Simulator, period int, fn func()) {}

// Clock mimics a host's clock: the same arming surface, stopped by a crash.
type Clock struct{ s *Simulator }

// Sim mimics the clock's simulator accessor.
func (c *Clock) Sim() *Simulator { return c.s }

// Post mimics a fire-and-forget event on the clock.
func (c *Clock) Post(delay int, fn func()) {}

// NewTimer mimics an unarmed timer on the clock.
func (c *Clock) NewTimer(fn func()) *Timer { return &Timer{} }

// Run mimics the event loop and its error result.
func (s *Simulator) Run(horizon int) error { return nil }

// NewRand mirrors the real audited seeding point.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) //sttcp:allow simdeterminism corpus mirror of the audited seeding point
}

// Event mimics a scheduled event.
type Event struct{}

// Scheduler mimics the real event-queue interface whose implementations
// the simdeterminism analyzer polices.
type Scheduler interface {
	Kind() int
	Len() int
	Schedule(e *Event)
	Cancel(e *Event)
	Peek() *Event
	Pop() *Event
}
