package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// InvariantNames lists the invariants every chaos run is checked against,
// in evaluation order: the registry every plan is judged by
// (experiment.InvariantNames; Plan.Run judges the run, and this package
// asks gray-quiescence of a run whose faults were all noise), then the
// three that read this package's own injection records.
//
//   - gray-detection-bound: every verdict-class gray fault (slow-not-dead
//     starve past the response SLO, asymmetric partition) must be answered
//     by a takeover starting no later than the injector's recorded
//     deadline.
//   - gray-evidence: every injected gray fault left its fingerprint —
//     corruption windows advanced a checksum/CRC reject counter, large
//     clock skew tripped the peer's cadence-drift note.
//   - flap-containment: interface flapping faster than the detection
//     period may legitimately trip a crisp detector once, but STONITH must
//     prevent dual-transmitter oscillation: at most one takeover.
func InvariantNames() []string {
	return append(experiment.InvariantNames(), "gray-detection-bound", "gray-evidence", "flap-containment")
}

// ClientSummary reports one workload connection's outcome.
type ClientSummary struct {
	Name     string
	Done     bool
	Err      string
	Progress string
}

func summarize(cl app.Client) ClientSummary {
	s := ClientSummary{Name: cl.Name(), Progress: cl.Progress()}
	var err error
	if s.Done, _, err = cl.Outcome(); err != nil {
		s.Err = err.Error()
	}
	return s
}

// RunResult is everything a chaos run produced.
type RunResult struct {
	Schedule Schedule
	Trace    *trace.Recorder
	Metrics  *metrics.Snapshot
	// Telemetry is the windowed time-series timeline, nil unless
	// Options.TelemetryWindow was set.
	Telemetry *telemetry.Timeline
	Clients   []ClientSummary
	// Violations is empty iff every invariant held.
	Violations []experiment.Violation
	// Skipped lists scheduled events the harness refused to inject (with
	// reasons): unsurvivable combinations or faults whose target was
	// already gone.
	Skipped []string
	// Injected counts successfully applied events per injector name.
	Injected map[string]int
}

// Failed reports whether any invariant was violated.
func (r *RunResult) Failed() bool { return len(r.Violations) > 0 }

// Report renders a failure report with the seed, the schedule, and every
// violation — everything needed to replay the run.
func (r *RunResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos run failed: %d invariant violation(s)\n", len(r.Violations))
	fmt.Fprintf(&b, "schedule: %v", r.Schedule)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION %v\n", v)
	}
	for _, c := range r.Clients {
		fmt.Fprintf(&b, "  client %s: done=%v %s", c.Name, c.Done, c.Progress)
		if c.Err != "" {
			fmt.Fprintf(&b, " err=%q", c.Err)
		}
		b.WriteString("\n")
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "  skipped %s\n", s)
	}
	// The failing run's anatomy, right next to the seed: the span
	// timeline shows where detection, takeover, and the retransmission
	// wait actually sat when the invariant broke.
	if r.Trace != nil && r.Trace.Len() > 0 {
		b.WriteString("timeline:\n")
		b.WriteString(r.Trace.RenderSpanTimeline(trace.TimelineOptions{Width: 100, Epoch: sim.Epoch}))
	}
	grayFlag := ""
	if r.Schedule.HasGray() {
		grayFlag = " -chaos.gray"
	}
	fmt.Fprintf(&b, "replay: go test ./internal/chaos -run TestChaos -chaos.seed=%d%s\n", r.Schedule.Seed, grayFlag)
	return b.String()
}

// grayInvariants evaluates the invariants that read the harness's own
// injection records, once, after the run.
func (h *harness) grayInvariants(snap *metrics.Snapshot) []experiment.Violation {
	var out []experiment.Violation
	bad := func(inv, format string, args ...any) {
		out = append(out, experiment.Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	// gray-detection-bound: a verdict-class gray fault must be answered
	// by a takeover starting at or before its recorded deadline.
	if len(h.grayExpects) > 0 {
		var earliest time.Time
		for _, sp := range h.tb.Tracer.FilterSpans(trace.KindTakeover) {
			if earliest.IsZero() || sp.Start.Before(earliest) {
				earliest = sp.Start
			}
		}
		for _, ex := range h.grayExpects {
			switch {
			case earliest.IsZero():
				bad("gray-detection-bound", "no takeover answered %s (deadline %v)",
					ex.what, ex.deadline)
			case earliest.Sub(sim.Epoch) > ex.deadline:
				bad("gray-detection-bound", "takeover answering %s started at %v, past deadline %v",
					ex.what, earliest.Sub(sim.Epoch), ex.deadline)
			}
		}
	}

	// gray-evidence: each injected gray fault must have left its
	// fingerprint by end of run.
	for _, e := range h.grayEvidence {
		if !e.ok() {
			bad("gray-evidence", "expected evidence never materialised: %s", e.desc)
		}
	}

	// flap-containment: a flap may trip a crisp detector once; STONITH
	// must prevent the second takeover (oscillation).
	if h.flapApplied {
		if n := snap.CounterTotal("sttcp.takeovers"); n > 1 {
			bad("flap-containment", "flapping caused %d takeovers; STONITH must prevent oscillation", n)
		}
	}
	return out
}
