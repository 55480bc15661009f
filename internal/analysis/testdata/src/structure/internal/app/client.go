package app

import "example.com/vet/internal/sim"

// The client is not server software: one-clock reads only server.go of
// this package.
func clientTick(s *sim.Simulator) { s.Schedule(1, func() {}) }
