package explore

import (
	"time"

	"repro/internal/experiment"
)

// Summary digests the result into the experiment registry's shape.
func (r *Result) Summary() *experiment.ExploreSummary {
	return &experiment.ExploreSummary{
		Interleavings: r.Interleavings,
		FaultPoints:   r.FaultPoints,
		ChoicePoints:  r.ChoicePoints,
		Pruned:        r.Pruned,
		Deduped:       r.Deduped,
		Frontier:      r.Frontier,
		FullyClosed:   r.FullyClosed,
		Violations:    len(r.Violations),
	}
}

// The explore demo rides the standard registry so `sttcp demo` can run a
// bounded exploration alongside the paper demos. Registered from init
// because experiment sits below explore in the import graph.
func init() {
	experiment.Register(experiment.Demo{
		Name:     "explore",
		Title:    "exhaustive interleaving exploration of the failover window",
		Extended: true, NoMetrics: true, NoTracer: true, // hundreds of replays, none singled out
		Run: func(p experiment.Params) (experiment.Result, error) {
			// The demo's window is sized to close: a 4 ms fault window
			// with a 10 ms forking grace exhausts in a couple of seconds,
			// so the audience sees an actual closure verdict rather than a
			// truncated frontier. Wider windows are the CLI's business.
			r, err := Explore(Config{
				Seed:           p.Seed,
				Workers:        p.Workers,
				FaultSpan:      4 * time.Millisecond,
				Grace:          10 * time.Millisecond,
				MaxFaultPoints: 2,
			})
			if err != nil {
				return experiment.Result{Demo: "explore"}, err
			}
			return experiment.Result{Demo: "explore", Explore: r.Summary()}, nil
		},
	})
}
