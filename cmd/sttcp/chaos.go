package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"

	"repro/cmd/internal/cliflags"
	"repro/internal/chaos"
	"repro/internal/experiment"
	"repro/internal/sweep"
)

// setupChaos is `sttcp chaos`: campaigns of seed-derived fault plans
// judged by the invariant registry, with greedy plan shrinking on
// failure. The same seed always reproduces the same run bit for bit.
func setupChaos(fs *flag.FlagSet) func(io.Writer) error {
	seed := cliflags.Seed(fs, 1, "run i uses seed+i")
	runs := fs.Int("runs", 100, "number of plans to run (seeds seed..seed+runs-1)")
	shrinkBudget := fs.Int("shrink-budget", 50, "max re-executions the shrinker may spend on a failure")
	traceDetail := fs.Bool("trace-detail", false, "record per-segment trace events and spans (heavier; pairs well with -trace-out)")
	gray := fs.Bool("gray", false, "draw gray-failure plans (starvation, asymmetric cuts, corruption, flapping, clock skew) instead of crisp Table 1 faults")
	verbose := fs.Bool("v", false, "print every plan and its outcome")
	art := cliflags.Register(fs, "the last (or first failing) run")

	return func(stdout io.Writer) error {
		if *runs < 1 {
			return usageErr("-runs %d: a campaign needs at least one plan", *runs)
		}
		opts := experiment.Options{TraceDetail: *traceDetail, TelemetryWindow: art.Window()}

		campaign, grayFlag := chaos.CampaignDefault, ""
		if *gray {
			campaign, grayFlag = chaos.CampaignGray, " -gray"
		}
		// The seeds run on every core, each on its own testbed; what a run
		// leaves is its outcome (a run error included, so sweep.Run returns
		// none), and a campaign holds no trace. Read in seed order, the
		// first seed that fails to run or violates an invariant ends the
		// campaign; it, or else the last seed, runs again alone for the
		// report, the shrink and the artifacts.
		outs, _ := sweep.Run(runtime.GOMAXPROCS(0), sweep.Seeds(*seed, *runs), func(s int64) (chaosOutcome, error) {
			res, err := chaos.Run(chaos.Generate(campaign, s), opts)
			if err != nil {
				return chaosOutcome{err: err}, nil
			}
			return chaosOutcome{res.Clients, res.Skipped, res.Metrics.CounterTotal("sttcp.takeovers"),
				res.Metrics.CounterTotal("sttcp.nonft_transitions"), res.Failed(), nil}, nil
		})
		var (
			skipped          int
			takeovers, nonft int64
			s                = *seed + int64(*runs-1)
		)
		for i, o := range outs {
			if *verbose {
				fmt.Fprintf(stdout, "--- run %d ---\n%s", i, chaos.Describe(chaos.Generate(campaign, *seed+int64(i))))
				for _, c := range o.clients {
					fmt.Fprintf(stdout, "    client %s done=%v %s\n", c.Name, c.Done, c.Progress)
				}
				for _, sk := range o.skipped {
					fmt.Fprintf(stdout, "    skipped %s\n", sk)
				}
			}
			if o.err != nil {
				return fmt.Errorf("seed %d: %w", *seed+int64(i), o.err)
			}
			skipped, takeovers, nonft = skipped+len(o.skipped), takeovers+o.takeovers, nonft+o.nonft
			if o.failed {
				s = *seed + int64(i)
				break
			}
		}
		p := chaos.Generate(campaign, s)
		res, err := chaos.Run(p, opts)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if res.Failed() {
			fmt.Fprintf(stdout, "%sreplay: sttcp chaos -seed %d -runs 1%s\n", res.Report(), s, grayFlag)
			shrunk := res
			_, extra, serr := experiment.Shrink(p, *shrinkBudget, func(c experiment.Plan) (bool, error) {
				r, err := chaos.Run(c, opts)
				if err != nil || !r.Failed() {
					return false, err
				}
				shrunk = r
				return true, nil
			})
			if serr != nil {
				fmt.Fprintf(stdout, "--- shrink failed: %v ---\n", serr)
			} else {
				fmt.Fprintf(stdout, "--- minimized after %d extra runs ---\n%s", extra, shrunk.Report())
			}
		}
		// A failing run's artifacts carry its invariant verdicts.
		art.Note(res.Trace, res.RunReport())
		if err := art.Write(stdout); err != nil {
			return err
		}
		if res.Failed() {
			return fmt.Errorf("seed %d violated an invariant", s)
		}
		fmt.Fprintf(stdout, "sttcp chaos: %d runs, all invariants held (%d takeovers, %d non-FT transitions, %d events skipped as unsurvivable)\n",
			*runs, takeovers, nonft, skipped)
		fmt.Fprintf(stdout, "invariants checked: %v\n", experiment.InvariantNames())
		return nil
	}
}

// chaosOutcome is what one campaign seed leaves for the summary and -v:
// its clients, skips and counts, whether it violated an invariant, and the
// error it failed to run with.
type chaosOutcome struct {
	clients          []chaos.ClientSummary
	skipped          []string
	takeovers, nonft int64
	failed           bool
	err              error
}
