// Package app is a corpus stand-in for the application replicas: a
// substrate package for faults, and server.go is host software for
// one-clock.
package app

import "example.com/vet/internal/sim"

// Server mimics the replica interface the testbed crashes through.
type Server interface {
	CrashSilent()
	CrashCleanup(abort bool)
}

type replica[S any] struct {
	sim   *sim.Simulator
	clock *sim.Clock
}

func (r *replica[S]) CrashSilent()            {}
func (r *replica[S]) CrashCleanup(abort bool) {}

func (r *replica[S]) pump() {
	r.clock.Post(1, func() {})       // the host's clock: a crash stops it
	r.sim.Post(1, func() {})         // want `one-clock: sim\.Simulator\.Post used here; host software arms its timers on the host's sim\.Clock`
	t := r.clock.Sim().NewTimer(nil) // want `one-clock: sim\.Simulator\.NewTimer used here`
	_ = t
}

// DataServer mimics a concrete replica.
type DataServer struct{ replica[int] }
