// Package experiment is a corpus stand-in for the harness: Testbed
// performs every fault and holds every artifact, Plan.Run builds and
// starts every testbed, and the registry builds every violation.
package experiment

import (
	"example.com/vet/internal/metrics"
	"example.com/vet/internal/telemetry"
	"example.com/vet/internal/trace"
	"example.com/vet/structure/internal/app"
	"example.com/vet/structure/internal/cluster"
	"example.com/vet/structure/internal/netem"
	"example.com/vet/structure/internal/serial"
)

// Options mimics the testbed options.
type Options struct{ Seed int64 }

// Testbed is the one holder of a run's artifacts.
type Testbed struct {
	Tracer   *trace.Recorder
	Metrics  *metrics.Snapshot
	Timeline *telemetry.Timeline
	host     *cluster.Host
	link     *netem.Link
	serial   *serial.Port
	server   app.Server
}

// Build mimics the testbed constructor.
func Build(opts Options) *Testbed { return &Testbed{} }

// StartSTTCP mimics starting the replicated nodes.
func (tb *Testbed) StartSTTCP() error { return nil }

// Violation mimics the registry's finding.
type Violation struct{ Invariant, Detail string }

func hold(set func(float64)) { set(0.5) }

// inject is where faults are performed: every use here is allowed.
func (tb *Testbed) inject(kind int) {
	switch kind {
	case 0:
		tb.host.CrashHW()
	case 1:
		hold(tb.link.SetLossRate)
	case 2:
		tb.server.CrashSilent()
	case 3:
		tb.serial.SetDown(true)
	}
}
