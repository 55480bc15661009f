// Command sttcp-explore model-checks the failover window: it
// systematically enumerates event-queue tie-break orders and
// fault-injection points within a bounded window around a takeover,
// replays every interleaving through the sealed simulator, and judges
// each with the full chaos invariant registry. Where sttcp-chaos samples
// the schedule space, sttcp-explore closes a bounded slice of it: a
// clean exit means every interleaving in the window was executed (or
// proven redundant) and every invariant held on all of them.
//
// Usage:
//
//	sttcp-explore [-seed N] [-fault-at DUR] [-fault-span DUR] [-grace DUR]
//	              [-fault-points N] [-faults KIND[,KIND...]]
//	              [-max-runs N] [-max-prefix N] [-wall DUR] [-workers N]
//	              [-require-closed]
//	              [-no-prune] [-no-dedup] [-shrink-budget N]
//	              [-metrics-out FILE] [-trace-out FILE] [-report-out FILE]
//
// Examples:
//
//	sttcp-explore                                  # default bounded window
//	sttcp-explore -wall 25s                        # CI smoke: stop on budget
//	sttcp-explore -no-prune -no-dedup -max-runs 0  # re-verify a closure the slow way
//	sttcp-explore -faults crash-serving,nicfail-serving -fault-points 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/chaos"
	"repro/internal/explore"
)

func main() {
	var (
		seed         = cliflags.Seed(1, "every replayed interleaving uses the same seed")
		faultAt      = flag.Duration("fault-at", 300*time.Millisecond, "start of the fault-placement window")
		faultSpan    = flag.Duration("fault-span", 30*time.Millisecond, "length of the fault-placement window")
		grace        = flag.Duration("grace", 1400*time.Millisecond, "how far past the fault window tie-breaks keep forking (default: the takeover-latency bound)")
		faultPoints  = flag.Int("fault-points", 6, "max fault boundaries to enumerate (even stride over the window)")
		faults       = flag.String("faults", "crash-serving", "comma-separated fault kinds to place at each boundary")
		maxRuns      = flag.Int("max-runs", 2000, "max interleavings to execute")
		maxPrefix    = flag.Int("max-prefix", 64, "max choice-prefix depth (deeper branch points void the closure claim)")
		wall         = flag.Duration("wall", 0, "stop extending the frontier after this much real time (0: no limit)")
		workers      = flag.Int("workers", 0, "replay worker pool (0: fully parallel; results identical for any setting)")
		noPrune      = flag.Bool("no-prune", false, "disable DPOR-style independence pruning")
		noDedup      = flag.Bool("no-dedup", false, "disable outcome-fingerprint dedup")
		shrinkBudget = flag.Int("shrink-budget", 25, "max re-executions spent minimising each violation")
		requireClose = flag.Bool("require-closed", false, "exit nonzero unless the window fully closed (CI smoke asserts the closure, not just the absence of violations)")
		metricsOut   = cliflags.MetricsOut("the first violating run")
		traceOut     = cliflags.TraceOut("the first violating run")
		reportOut    = cliflags.ReportOut("the first violating run")
	)
	flag.Parse()

	var kinds []chaos.EventKind
	for _, name := range strings.Split(*faults, ",") {
		k, err := chaos.ParseEventKind(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sttcp-explore: %v\n", err)
			os.Exit(2)
		}
		kinds = append(kinds, k)
	}

	cfg := explore.Config{
		Seed:           *seed,
		FaultKinds:     kinds,
		FaultAt:        *faultAt,
		FaultSpan:      *faultSpan,
		Grace:          *grace,
		MaxFaultPoints: *faultPoints,
		MaxRuns:        *maxRuns,
		MaxPrefix:      *maxPrefix,
		Workers:        *workers,
		NoPrune:        *noPrune,
		NoDedup:        *noDedup,
		ShrinkBudget:   *shrinkBudget,
	}
	// The -wall budget bounds how long the exploration may occupy a CI
	// worker; it is polled only between replay batches, so nothing inside
	// a simulated run ever sees this clock.
	start := time.Now() //sttcp:allow simdeterminism -wall budgets real CI time, outside any simulation
	if *wall > 0 {
		cfg.Stop = func() bool {
			return time.Since(start) >= *wall //sttcp:allow simdeterminism -wall budgets real CI time, outside any simulation
		}
	}

	res, err := explore.Explore(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sttcp-explore: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("sttcp-explore: seed=%d window=[%v,%v) grace=%v\n",
		*seed, *faultAt, *faultAt+*faultSpan, *grace)
	fmt.Printf("%s", res.Report())
	fmt.Printf("elapsed: %v\n", //sttcp:allow simdeterminism summary reports real elapsed time
		time.Since(start).Round(time.Millisecond))

	if len(res.Violations) > 0 {
		v := res.Violations[0]
		if err := cliflags.WriteMetrics(*metricsOut, v.Result.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "sttcp-explore: %v\n", err)
		}
		if err := cliflags.WriteChromeTrace(*traceOut, v.Result.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "sttcp-explore: %v\n", err)
		}
		if err := cliflags.WriteReport(*reportOut, v.Result.RunReport()); err != nil {
			fmt.Fprintf(os.Stderr, "sttcp-explore: %v\n", err)
		}
		os.Exit(1)
	}
	if *requireClose && !res.FullyClosed {
		fmt.Fprintln(os.Stderr, "sttcp-explore: window did not fully close (-require-closed)")
		os.Exit(3)
	}
}
