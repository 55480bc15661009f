package chaos

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

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
	// Plan is the plan the run executed, as Run was given it.
	Plan    experiment.Plan
	Trace   *trace.Recorder
	Metrics *metrics.Snapshot
	// Telemetry is the windowed time-series timeline, nil unless
	// Options.TelemetryWindow was set.
	Telemetry *telemetry.Timeline
	Clients   []ClientSummary
	// Violations is empty iff every invariant of the registry held.
	Violations []experiment.Violation
	// Skipped lists the client starts and faults the harness refused to
	// inject (with reasons): unsurvivable combinations or faults whose
	// target was already gone.
	Skipped []string
	// Injected counts the client starts and faults that took effect, per
	// row name.
	Injected map[string]int
}

// Failed reports whether any invariant was violated.
func (r *RunResult) Failed() bool { return len(r.Violations) > 0 }

// Report renders a failure report with the plan and every violation —
// everything needed to replay the run.
func (r *RunResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos run failed: %d invariant violation(s)\n", len(r.Violations))
	fmt.Fprintf(&b, "schedule: %s", Describe(r.Plan))
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
	return b.String()
}

// RunReport assembles the versioned run-report artifact for one chaos run:
// the plan (seed, rendered events), the final metrics snapshot, the
// telemetry timeline (when enabled), every failover anatomy the tracer
// assembled, and — unique to chaos runs — the invariant verdicts. One
// verdict is emitted per registered invariant, in registry order, so a
// clean run still documents exactly what was checked.
func (r *RunResult) RunReport() *telemetry.Report {
	rep := telemetry.NewReport("chaos", r.Plan.Seed, nil, r.Metrics, r.Telemetry, r.Trace.Anatomy())
	cr := &telemetry.ChaosReport{
		Schedule: Describe(r.Plan),
		Events:   len(r.Plan.Clients) + len(r.Plan.Faults),
		Injected: r.Injected,
		Skipped:  r.Skipped,
	}
	// Violations are grouped under their invariant so a reader (or the
	// diff gate) can tell a newly-violated invariant from one that merely
	// gained another instance.
	byName := make(map[string][]string)
	for _, v := range r.Violations {
		byName[v.Invariant] = append(byName[v.Invariant], v.Detail)
	}
	for _, name := range experiment.InvariantNames() {
		cr.Invariants = append(cr.Invariants, telemetry.InvariantVerdict{Name: name, Violations: byName[name]})
	}
	rep.Chaos = cr
	return rep
}
