// Package sim is a corpus stand-in for the real simulator: same package
// path suffix, same method names, none of the behavior. Importing it
// marks a corpus package as sim-driven for the simdeterminism analyzer,
// and its Simulator/NewRand shapes feed maporder and the allow tests.
package sim

import "math/rand"

// Simulator mimics the scheduling surface of the real simulator.
type Simulator struct{}

// Schedule mimics delayed scheduling.
func (s *Simulator) Schedule(delay int, fn func()) {}

// At mimics absolute-time scheduling.
func (s *Simulator) At(t int, fn func()) {}

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
