package main

import (
	"flag"
	"fmt"
	"io"

	"repro/cmd/internal/cliflags"
	"repro/internal/chaos"
	"repro/internal/experiment"
)

// setupChaos is `sttcp chaos`: campaigns of seed-derived fault schedules
// judged by the invariant registry, with greedy schedule shrinking on
// failure. The same seed always reproduces the same run bit for bit.
func setupChaos(fs *flag.FlagSet) func(io.Writer) error {
	seed := cliflags.Seed(fs, 1, "run i uses seed+i")
	runs := fs.Int("runs", 100, "number of schedules to run (seeds seed..seed+runs-1)")
	shrinkBudget := fs.Int("shrink-budget", 50, "max re-executions the shrinker may spend on a failure")
	traceDetail := fs.Bool("trace-detail", false, "record per-segment trace events and spans (heavier; pairs well with -trace-out)")
	gray := fs.Bool("gray", false, "generate gray-failure schedules (starvation, asymmetric cuts, corruption, flapping, clock skew) instead of crisp Table 1 faults")
	verbose := fs.Bool("v", false, "print every schedule and its outcome")
	art := cliflags.Register(fs, "the last (or first failing) run")

	return func(stdout io.Writer) error {
		if *runs < 1 {
			return usageErr("-runs %d: a campaign needs at least one schedule", *runs)
		}
		opts := chaos.Options{Options: experiment.Options{TraceDetail: *traceDetail, TelemetryWindow: art.Window()}}

		campaign := chaos.CampaignDefault
		if *gray {
			campaign = chaos.CampaignGray
		}
		var (
			skipped          int
			takeovers, nonft int64
			last             *chaos.RunResult
		)
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			sc := chaos.Generate(campaign, s)
			if *verbose {
				fmt.Fprintf(stdout, "--- run %d ---\n%v", i, sc)
			}
			res, err := chaos.Run(sc, opts)
			if err != nil {
				return fmt.Errorf("seed %d: %w", s, err)
			}
			last = res
			skipped += len(res.Skipped)
			takeovers += res.Metrics.CounterTotal("sttcp.takeovers")
			nonft += res.Metrics.CounterTotal("sttcp.nonft_transitions")
			if *verbose {
				for _, c := range res.Clients {
					fmt.Fprintf(stdout, "    client %s done=%v %s\n", c.Name, c.Done, c.Progress)
				}
				for _, sk := range res.Skipped {
					fmt.Fprintf(stdout, "    skipped %s\n", sk)
				}
			}
			if res.Failed() {
				fmt.Fprintf(stdout, "%s", res.Report())
				shr, serr := chaos.Shrink(sc, opts, res, *shrinkBudget)
				if serr != nil {
					fmt.Fprintf(stdout, "--- shrink failed: %v ---\n", serr)
				} else {
					fmt.Fprintf(stdout, "--- minimized after %d extra runs ---\n%s", shr.Runs, shr.Result.Report())
				}
				// The failing run's artifacts (its report carries the
				// invariant verdicts), not the campaign's last.
				art.Note(res.Trace, res.RunReport())
				if err := art.Write(stdout); err != nil {
					return err
				}
				return fmt.Errorf("seed %d violated an invariant", s)
			}
		}
		art.Note(last.Trace, last.RunReport())
		if err := art.Write(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sttcp chaos: %d runs, all invariants held (%d takeovers, %d non-FT transitions, %d events skipped as unsurvivable)\n",
			*runs, takeovers, nonft, skipped)
		fmt.Fprintf(stdout, "invariants checked: %v\n", chaos.InvariantNames())
		return nil
	}
}
