package experiment

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// BuildReport assembles the run-report artifact for one demo result: the
// identity of the run (demo, seed, the params that deviated from
// defaults), the final metrics snapshot, the telemetry timeline, and the
// failover anatomy — every failover's where the demo sweeps, the last
// row's for Table 1 (the row whose metrics the report carries).
//
// Every field derives from virtual time, so two runs of the same demo at
// the same seed produce byte-identical reports on any machine — that is
// the property the cross-run regression observatory (`sttcp report -diff`)
// is built on.
func BuildReport(p Params, res Result) *telemetry.Report {
	var anatomies []trace.FailoverAnatomy
	for _, f := range res.Failovers {
		if f.Anatomy != nil {
			anatomies = append(anatomies, *f.Anatomy)
		}
	}
	if res.Scale != nil && res.Scale.Anatomy != nil {
		anatomies = append(anatomies, *res.Scale.Anatomy)
	}
	if n := len(res.Table1); n > 0 {
		anatomies = res.Table1[n-1].Tracer.Anatomy()
	}
	return telemetry.NewReport(res.Demo, p.Seed, paramsMap(p), res.Metrics, res.Telemetry, anatomies)
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
