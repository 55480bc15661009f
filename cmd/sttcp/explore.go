package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/chaos"
	"repro/internal/explore"
)

// setupExplore is `sttcp explore`. Where chaos samples the schedule space,
// explore closes a slice of it: a clean exit means every tie-break order and
// fault placement in the window was replayed (or proven redundant) and every
// invariant of the registry held on all of them.
func setupExplore(fs *flag.FlagSet) func(io.Writer) error {
	var cfg explore.Config
	seed := cliflags.Seed(fs, 1, "every replayed interleaving uses the same seed")
	fs.DurationVar(&cfg.FaultAt, "fault-at", 300*time.Millisecond, "start of the fault-placement window")
	fs.DurationVar(&cfg.FaultSpan, "fault-span", 30*time.Millisecond, "length of the fault-placement window")
	fs.DurationVar(&cfg.Grace, "grace", 1400*time.Millisecond, "how far past the fault window tie-breaks keep forking (the takeover-latency bound)")
	fs.IntVar(&cfg.MaxFaultPoints, "fault-points", 6, "max fault boundaries to enumerate (even stride over the window)")
	faults := fs.String("faults", "crash-serving", "comma-separated faults, by their chaos names, to place at each boundary")
	fs.IntVar(&cfg.MaxRuns, "max-runs", 2000, "max interleavings to execute")
	fs.IntVar(&cfg.MaxPrefix, "max-prefix", 64, "max choice-prefix depth (deeper branch points void the closure claim)")
	fs.BoolVar(&cfg.NoPrune, "no-prune", false, "disable DPOR-style independence pruning")
	fs.BoolVar(&cfg.NoDedup, "no-dedup", false, "disable outcome-fingerprint dedup")
	fs.IntVar(&cfg.ShrinkBudget, "shrink-budget", 25, "max re-executions spent minimising each violation")
	requireClose := fs.Bool("require-closed", false, "exit nonzero unless the window fully closed (CI smoke asserts the closure, not just the absence of violations)")
	art := cliflags.Register(fs, "the first violating run")

	return func(stdout io.Writer) error {
		cfg.Seed = *seed
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

		if len(res.Violations) > 0 {
			r := res.Violations[0].Result
			art.Note(r.Trace, r.RunReport())
			if err := art.Write(stdout); err != nil {
				return err
			}
			return fmt.Errorf("%d interleaving(s) violated an invariant", len(res.Violations))
		}
		if *requireClose && !res.FullyClosed {
			return exitError{3, fmt.Errorf("window did not fully close (-require-closed)")}
		}
		return nil
	}
}
