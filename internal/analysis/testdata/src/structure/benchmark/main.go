// The benchmark builds, starts and crashes its own testbeds: exempt from
// faults-one-place and one-run (ROADMAP item 2a).
package main

import (
	"example.com/vet/structure/internal/cluster"
	"example.com/vet/structure/internal/experiment"
)

func main() {
	tb := experiment.Build(experiment.Options{})
	_ = tb.StartSTTCP()
	var primary cluster.Host
	primary.CrashHW()
}
