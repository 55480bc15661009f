package chaos

import (
	"repro/internal/telemetry"
)

// RunReport assembles the versioned run-report artifact for one chaos run:
// the schedule identity (seed, rendered event list), the final
// metrics snapshot, the telemetry timeline (when enabled), every failover
// anatomy the tracer assembled, and — unique to chaos runs — the invariant
// verdicts. One verdict is emitted per registered invariant, in registry
// order, so a clean run still documents exactly what was checked.
func (r *RunResult) RunReport() *telemetry.Report {
	rep := telemetry.NewReport("chaos", r.Schedule.Seed, nil, r.Metrics, r.Telemetry, r.Trace.Anatomy())
	rep.Chaos = r.chaosSection()
	return rep
}

// chaosSection folds the run's verdicts into the report's chaos block:
// violations are grouped under their invariant so a reader (or the diff
// gate) can tell a newly-violated invariant from one that merely gained
// another instance.
func (r *RunResult) chaosSection() *telemetry.ChaosReport {
	cr := &telemetry.ChaosReport{
		Schedule: r.Schedule.String(),
		Events:   len(r.Schedule.Events),
		Injected: r.Injected,
		Skipped:  r.Skipped,
	}
	byName := make(map[string][]string)
	for _, v := range r.Violations {
		byName[v.Invariant] = append(byName[v.Invariant], v.Detail)
	}
	for _, name := range InvariantNames() {
		cr.Invariants = append(cr.Invariants, telemetry.InvariantVerdict{
			Name:       name,
			Violations: byName[name],
		})
	}
	return cr
}
