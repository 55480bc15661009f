package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/cmd/internal/cliflags"
	"repro/internal/chaos"
	"repro/internal/explore"
)

// setupExplore is `sttcp explore`. Where chaos samples the schedule space,
// explore closes a slice of it: a clean exit means every tie-break order and
// fault placement in the window was replayed (or proven redundant) and every
// invariant of the registry held on all of them.
func setupExplore(fs *flag.FlagSet) func(io.Writer) error {
	cfg := explore.DefaultConfig()
	seed := cliflags.Seed(fs, cfg.Seed, "every replayed interleaving uses the same seed")
	fs.DurationVar(&cfg.FaultAt, "fault-at", cfg.FaultAt, "start of the fault-placement window")
	fs.DurationVar(&cfg.FaultSpan, "fault-span", cfg.FaultSpan, "length of the fault-placement window")
	fs.DurationVar(&cfg.Grace, "grace", cfg.Grace, "how far past the fault window tie-breaks keep forking (the takeover-latency bound)")
	fs.IntVar(&cfg.MaxFaultPoints, "fault-points", cfg.MaxFaultPoints, "max fault boundaries to enumerate (even stride over the window; 0: every boundary)")
	faults := fs.String("faults", "crash-serving", "comma-separated faults, by their chaos names, to place at each boundary")
	fs.IntVar(&cfg.MaxRuns, "max-runs", cfg.MaxRuns, "max interleavings to execute")
	fs.IntVar(&cfg.MaxPrefix, "max-prefix", cfg.MaxPrefix, "max choice-prefix depth (deeper branch points void the closure claim)")
	fs.BoolVar(&cfg.NoDedup, "no-dedup", false, "disable outcome-fingerprint dedup")
	fs.IntVar(&cfg.ShrinkBudget, "shrink-budget", cfg.ShrinkBudget, "max re-executions spent minimising each violation (0: none)")
	requireClose := fs.Bool("require-closed", false, "exit nonzero unless the window fully closed (CI smoke asserts the closure, not just the absence of violations)")
	art := cliflags.Register(fs, "the first violating run")

	return func(stdout io.Writer) error {
		cfg.Seed = *seed
		if cfg.MaxRuns < 1 || min(cfg.FaultAt, cfg.FaultSpan, cfg.Grace) < 0 || min(cfg.MaxFaultPoints, cfg.MaxPrefix, cfg.ShrinkBudget) < 0 {
			return usageErr("-max-runs must be at least 1, and no window, count or budget may be negative")
		}
		cfg.FaultKinds = nil // -faults names every template, the default one too
		for _, name := range strings.Split(*faults, ",") {
			f, err := chaos.FaultNamed(strings.TrimSpace(name))
			if err != nil {
				return usageErr("-faults: %w", err)
			}
			cfg.FaultKinds = append(cfg.FaultKinds, f)
		}
		res, err := explore.Explore(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sttcp explore: seed=%d window=[%v,%v) grace=%v\n",
			cfg.Seed, cfg.FaultAt, cfg.FaultAt+cfg.FaultSpan, cfg.Grace)
		fmt.Fprintf(stdout, "%s", res.Report())

		if v := res.Violation; v != nil {
			art.Note(v.Result.Trace, v.Result.RunReport())
			if err := art.Write(stdout); err != nil {
				return err
			}
			return fmt.Errorf("1 interleaving(s) violated an invariant")
		}
		if *requireClose && !res.FullyClosed {
			return exitError{3, fmt.Errorf("window did not fully close (-require-closed)")}
		}
		return nil
	}
}
