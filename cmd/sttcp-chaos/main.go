// Command sttcp-chaos runs long offline chaos campaigns against the
// simulated ST-TCP testbed: seed-derived fault schedules, system-wide
// invariant checking, and greedy schedule shrinking on failure. Every
// failure prints a replay command; the same seed always reproduces the
// same run bit for bit.
//
// Usage:
//
//	sttcp-chaos [-seed N] [-runs N] [-wall DUR] [-shrink-budget N]
//	            [-metrics-out FILE] [-trace-out FILE] [-report-out FILE]
//	            [-telemetry-window DUR] [-trace-detail] [-flight-recorder N] [-v]
//
// Examples:
//
//	sttcp-chaos -runs 200                # fixed-size campaign
//	sttcp-chaos -wall 30s                # CI smoke: as many runs as fit
//	sttcp-chaos -seed 468 -runs 1 -v     # replay one seed verbosely
//	sttcp-chaos -runs 10 -metrics-out -  # dump the last run's metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/chaos"
)

func main() {
	var (
		seed         = cliflags.Seed(1, "run i uses seed+i")
		runs         = flag.Int("runs", 100, "number of schedules to run (0 with -wall: unlimited)")
		wall         = flag.Duration("wall", 0, "stop starting new runs after this much real time (0: no limit)")
		shrinkBudget = flag.Int("shrink-budget", 50, "max re-executions the shrinker may spend on a failure")
		metricsOut   = cliflags.MetricsOut("the last run")
		traceOut     = cliflags.TraceOut("the last (or first failing) run")
		reportOut    = cliflags.ReportOut("the last (or first failing) run")
		telWindow    = cliflags.TelemetryWindow(0)
		traceDetail  = flag.Bool("trace-detail", false, "record per-segment trace events and spans (heavier; pairs well with -trace-out)")
		flightRec    = flag.Int("flight-recorder", 0, "bound trace memory to roughly N spans, keeping pinned failure windows (0: unbounded)")
		gray         = flag.Bool("gray", false, "generate gray-failure schedules (starvation, asymmetric cuts, corruption, flapping, clock skew) instead of crisp Table 1 faults")
		verbose      = flag.Bool("v", false, "print every schedule and its outcome")
	)
	flag.Parse()
	if *reportOut != "" && *telWindow == 0 {
		*telWindow = 100 * time.Millisecond
	}
	opts := chaos.Options{TraceDetail: *traceDetail, FlightRecorder: *flightRec, TelemetryWindow: *telWindow}

	if *runs == 0 && *wall == 0 {
		fmt.Fprintln(os.Stderr, "sttcp-chaos: need -runs or -wall")
		os.Exit(2)
	}

	// The -wall budget is real time by definition: it bounds how long the
	// campaign may occupy a CI worker, not anything inside a run. Nothing
	// below the per-run boundary ever sees this clock.
	start := time.Now() //sttcp:allow simdeterminism -wall budgets real CI time, outside any simulation
	var (
		executed  int
		skipped   int
		takeovers int64
		nonft     int64
		last      *chaos.RunResult
	)
	for i := 0; *runs == 0 || i < *runs; i++ {
		if *wall > 0 && time.Since(start) >= *wall { //sttcp:allow simdeterminism -wall budgets real CI time, outside any simulation
			break
		}
		s := *seed + int64(i)
		spec := chaos.DefaultSpec(s)
		if *gray {
			spec = chaos.GraySpec(s)
		}
		sc := chaos.Generate(spec)
		if *verbose {
			fmt.Printf("--- run %d ---\n%v", i, sc)
		}
		res, err := chaos.Run(sc, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sttcp-chaos: seed %d: %v\n", s, err)
			os.Exit(1)
		}
		executed++
		last = res
		skipped += len(res.Skipped)
		takeovers += res.Metrics.CounterTotal("sttcp.takeovers")
		nonft += res.Metrics.CounterTotal("sttcp.nonft_transitions")
		if *verbose {
			for _, c := range res.Clients {
				fmt.Printf("    client %s done=%v %s\n", c.Name, c.Done, c.Progress)
			}
			for _, sk := range res.Skipped {
				fmt.Printf("    skipped %s\n", sk)
			}
		}
		if res.Failed() {
			fmt.Printf("%s", res.Report())
			shr, serr := chaos.Shrink(sc, opts, res, *shrinkBudget)
			if serr != nil {
				fmt.Fprintf(os.Stderr, "sttcp-chaos: shrink: %v\n", serr)
			} else {
				fmt.Printf("--- minimized after %d extra runs ---\n%s", shr.Runs, shr.Result.Report())
			}
			writeMetrics(*metricsOut, res)
			writeTrace(*traceOut, res)
			writeReport(*reportOut, res)
			os.Exit(1)
		}
	}

	writeMetrics(*metricsOut, last)
	writeTrace(*traceOut, last)
	writeReport(*reportOut, last)
	fmt.Printf("sttcp-chaos: %d runs in %v, all invariants held (%d takeovers, %d non-FT transitions, %d events skipped as unsurvivable)\n",
		executed, //sttcp:allow simdeterminism campaign summary reports real elapsed time
		time.Since(start).Round(time.Millisecond), takeovers, nonft, skipped)
	fmt.Printf("invariants checked: %v\n", chaos.InvariantNames())
}

// writeTrace exports a run's span trace as Chrome trace-event JSON —
// on failure the failing run's, otherwise the campaign's last run (the
// artifact CI uploads from the chaos smoke).
func writeTrace(path string, res *chaos.RunResult) {
	if path == "" || res == nil {
		return
	}
	if err := cliflags.WriteChromeTrace(path, res.Trace); err != nil {
		fmt.Fprintf(os.Stderr, "sttcp-chaos: %v\n", err)
		os.Exit(1)
	}
}

func writeMetrics(path string, res *chaos.RunResult) {
	if path == "" || res == nil {
		return
	}
	if err := cliflags.WriteMetrics(path, res.Metrics); err != nil {
		fmt.Fprintf(os.Stderr, "sttcp-chaos: %v\n", err)
		os.Exit(1)
	}
}

// writeReport exports a run's unified run report — on failure the failing
// run's (with its invariant verdicts), otherwise the campaign's last run.
func writeReport(path string, res *chaos.RunResult) {
	if path == "" || res == nil {
		return
	}
	if err := cliflags.WriteReport(path, res.RunReport()); err != nil {
		fmt.Fprintf(os.Stderr, "sttcp-chaos: %v\n", err)
		os.Exit(1)
	}
}
