package experiment

import (
	"fmt"

	"repro/internal/telemetry"
)

// Report is the run-report artifact of the run this testbed carried, read
// off it once the run is over: the identity of the invocation (demo, seed,
// the params that deviated from defaults), the final metrics snapshot, the
// telemetry timeline where a window sampled one, and the anatomy of every
// failover the tracer assembled. A demo of several runs reports its last.
//
// Every field derives from virtual time, so two runs of the same demo at
// the same seed produce byte-identical reports on any machine.
func (tb *Testbed) Report(demo string, p Params) *telemetry.Report {
	return telemetry.NewReport(demo, p.Seed, paramsMap(p), tb.Metrics.Snapshot(), tb.Telemetry.Timeline(), tb.Tracer.Anatomy())
}

// paramsMap records the knobs that shaped the run, skipping zero values
// so defaulted and explicit-default invocations serialize identically
// only when they truly matched.
func paramsMap(p Params) map[string]string {
	m := map[string]string{}
	put := func(key string, set bool, v any) {
		if set {
			m[key] = fmt.Sprint(v)
		}
	}
	put("size", p.Size != 0, p.Size)
	put("periods", len(p.Periods) > 0, p.Periods)
	put("eager", p.Eager, p.Eager)
	put("conns", p.Conns != 0, p.Conns)
	put("telemetry_window", p.TelemetryWindow != 0, p.TelemetryWindow)
	if len(m) == 0 {
		return nil
	}
	return m
}
