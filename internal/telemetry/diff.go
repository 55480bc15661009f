package telemetry

import (
	"fmt"
	"time"
)

// DiffOptions tunes the regression gates. Zero values get defaults.
type DiffOptions struct {
	// LatencyTolerance is the allowed relative growth of a windowed
	// latency series' peak or mean before it counts as a regression
	// (default 0.25 = +25%).
	LatencyTolerance float64
	// PhaseTolerance is the allowed relative growth of a failover
	// anatomy phase (default 0.25).
	PhaseTolerance float64
}

const (
	// latencySlack is an absolute floor under which latency growth is
	// never flagged, so sub-millisecond jitter cannot fail a gate.
	latencySlack = time.Millisecond
	// phaseSlack is the absolute slack for phase comparisons.
	phaseSlack = 50 * time.Millisecond
	// metricNoteLimit caps the informational metric-delta notes.
	metricNoteLimit = 20
)

func (o DiffOptions) withDefaults() DiffOptions {
	if o.LatencyTolerance <= 0 {
		o.LatencyTolerance = 0.25
	}
	if o.PhaseTolerance <= 0 {
		o.PhaseTolerance = 0.25
	}
	return o
}

// Diff is the outcome of comparing a candidate report against a baseline.
// Regressions gate (non-zero exit in `sttcp report -diff`); Notes are
// informational drift.
type Diff struct {
	Regressions []string `json:"regressions,omitempty"`
	Notes       []string `json:"notes,omitempty"`
}

// Ok reports whether the candidate passed every gate.
func (d *Diff) Ok() bool { return d == nil || len(d.Regressions) == 0 }

func (d *Diff) regress(format string, args ...any) {
	d.Regressions = append(d.Regressions, fmt.Sprintf(format, args...))
}

func (d *Diff) note(format string, args ...any) {
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// DiffReports compares candidate cand against baseline base. Three gates
// produce regressions:
//
//  1. windowed latency series (".p50"/".p99"/".max" suffixes): the
//     candidate's peak and mean may not exceed the baseline's by more
//     than the tolerance (plus absolute slack), and a series — or the
//     whole timeline — the baseline has may not be missing from the
//     candidate, or a change that stops producing the evidence would
//     diff clean;
//  2. failover anatomy: each phase of each failover may not grow past
//     tolerance+slack, and the failover count may not increase;
//  3. chaos invariants: a violation in the candidate that the baseline
//     did not have fails outright.
//
// Everything else — counter deltas, config drift — is reported as notes
// only, because it is an expected consequence of comparing two different
// runs.
func DiffReports(base, cand *Report, opts DiffOptions) *Diff {
	o := opts.withDefaults()
	d := &Diff{}

	if base.Demo != cand.Demo {
		d.note("demo differs: %q vs %q", base.Demo, cand.Demo)
	}
	if base.Seed != cand.Seed {
		d.note("seed differs: %d vs %d", base.Seed, cand.Seed)
	}

	d.diffLatencySeries(base.Telemetry, cand.Telemetry, o)
	d.diffAnatomy(base.Anatomy, cand.Anatomy, o)
	d.diffChaos(base.Chaos, cand.Chaos)
	d.diffMetrics(base, cand, o)
	return d
}

func isLatencySeries(name string) bool {
	for _, suf := range [...]string{".p50", ".p99", ".max"} {
		if len(name) > len(suf) && name[len(name)-len(suf):] == suf {
			return true
		}
	}
	return false
}

func (d *Diff) diffLatencySeries(base, cand *Timeline, o DiffOptions) {
	if base == nil {
		if cand != nil {
			d.note("telemetry timeline present only in candidate")
		}
		return
	}
	if cand == nil {
		d.regress("telemetry timeline missing from candidate")
		return
	}
	slack := latencySlack.Seconds()
	for _, bs := range base.Series {
		if !isLatencySeries(bs.Name) {
			continue
		}
		cs := cand.Find(bs.Name)
		if cs == nil {
			d.regress("latency series %s missing from candidate", bs.Name)
			continue
		}
		bPeak, _ := bs.Max()
		cPeak, cAt := cs.Max()
		if cPeak > bPeak*(1+o.LatencyTolerance)+slack {
			d.regress("latency series %s peak %.4gs exceeds baseline %.4gs (+%.0f%% tolerance) at window %d",
				bs.Name, cPeak, bPeak, o.LatencyTolerance*100, cAt)
		}
		bMean, cMean := bs.Mean(), cs.Mean()
		if cMean > bMean*(1+o.LatencyTolerance)+slack {
			d.regress("latency series %s mean %.4gs exceeds baseline %.4gs (+%.0f%% tolerance)",
				bs.Name, cMean, bMean, o.LatencyTolerance*100)
		}
	}
}

func (d *Diff) diffAnatomy(base, cand []Phases, o DiffOptions) {
	if len(cand) > len(base) {
		d.regress("candidate has %d failovers, baseline %d", len(cand), len(base))
	} else if len(cand) < len(base) {
		d.note("candidate has %d failovers, baseline %d", len(cand), len(base))
	}
	n := len(base)
	if len(cand) < n {
		n = len(cand)
	}
	phases := [...]struct {
		name string
		get  func(Phases) time.Duration
	}{
		{"detection", func(p Phases) time.Duration { return p.Detection }},
		{"takeover", func(p Phases) time.Duration { return p.Takeover }},
		{"retransmit-wait", func(p Phases) time.Duration { return p.RetransmitWait }},
		{"client-stall", func(p Phases) time.Duration { return p.ClientStall }},
	}
	for i := 0; i < n; i++ {
		for _, ph := range phases {
			b, c := ph.get(base[i]), ph.get(cand[i])
			limit := time.Duration(float64(b)*(1+o.PhaseTolerance)) + phaseSlack
			if c > limit {
				d.regress("failover %d phase %s drifted %v -> %v (limit %v)", i, ph.name, b, c, limit)
			} else if c != b {
				d.note("failover %d phase %s %v -> %v", i, ph.name, b, c)
			}
		}
	}
}

func (d *Diff) diffChaos(base, cand *ChaosReport) {
	if cand == nil {
		if base != nil {
			d.note("chaos section present only in baseline")
		}
		return
	}
	baseViol := map[string]int{}
	if base != nil {
		for _, iv := range base.Invariants {
			baseViol[iv.Name] = len(iv.Violations)
		}
	}
	for _, iv := range cand.Invariants {
		if len(iv.Violations) > baseViol[iv.Name] {
			d.regress("invariant %s: %d violations (baseline %d): %s",
				iv.Name, len(iv.Violations), baseViol[iv.Name], iv.Violations[0])
		}
	}
}

func (d *Diff) diffMetrics(base, cand *Report, o DiffOptions) {
	if base.Metrics == nil || cand.Metrics == nil {
		return
	}
	noted := 0
	for _, bs := range base.Metrics.Samples {
		if bs.Type != "counter" {
			continue
		}
		cv := cand.Metrics.Counter(bs.Component, bs.Name, bs.Labels)
		if cv == bs.Value {
			continue
		}
		if noted < metricNoteLimit {
			d.note("counter %s/%s%s %d -> %d", bs.Component, bs.Name, labelSuffix(bs.Labels), bs.Value, cv)
		}
		noted++
	}
	if noted > metricNoteLimit {
		d.note("... and %d more counter deltas", noted-metricNoteLimit)
	}
}

func labelSuffix(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
