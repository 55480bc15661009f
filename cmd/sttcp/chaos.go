package main

import (
	"flag"
	"fmt"
	"io"

	"repro/cmd/internal/cliflags"
	"repro/internal/chaos"
	"repro/internal/experiment"
)

// setupChaos is `sttcp chaos`: campaigns of seed-derived fault plans
// judged by the invariant registry, with greedy plan shrinking on
// failure. The same seed always reproduces the same run bit for bit.
func setupChaos(fs *flag.FlagSet) func(io.Writer) error {
	seed := cliflags.Seed(fs, 1, "run i uses seed+i")
	runs := fs.Int("runs", 100, "number of plans to run (seeds seed..seed+runs-1)")
	shrinkBudget := fs.Int("shrink-budget", 50, "max re-executions the shrinker may spend on a failure")
	gray := fs.Bool("gray", false, "draw gray-failure plans (starvation, asymmetric cuts, corruption, flapping, clock skew) instead of crisp Table 1 faults")
	verbose := fs.Bool("v", false, "print every plan and its outcome")
	art := cliflags.Register(fs, "the last (or minimal failing) run")

	return func(stdout io.Writer) error {
		if *runs < 1 {
			return usageErr("-runs %d: a campaign needs at least one plan", *runs)
		}
		campaign, grayFlag := chaos.CampaignDefault, ""
		if *gray {
			campaign, grayFlag = chaos.CampaignGray, " -gray"
		}
		// The seeds run on every core without trace detail; read in seed
		// order, the first that fails to run or violates an invariant ends
		// the campaign. The run reported is its minimal reproduction, or
		// else the last seed's run, and it is replayed with detail exactly
		// when a trace is written.
		d := campaign.Seeds(*seed, *runs, experiment.Options{TelemetryWindow: art.Window()})
		d.ShrinkBudget, d.Detail = *shrinkBudget, art.TraceOut != ""
		var last *chaos.RunResult
		d.Read = func(p experiment.Plan, r *chaos.RunResult) {
			last = r
			if !*verbose {
				return
			}
			fmt.Fprintf(stdout, "--- run %d ---\n%s", p.Seed-*seed, chaos.Describe(p))
			if r == nil {
				return
			}
			for _, c := range r.Clients {
				fmt.Fprintf(stdout, "    client %s done=%v %s\n", c.Name, c.Done, c.Progress)
			}
			for _, sk := range r.Skipped {
				fmt.Fprintf(stdout, "    skipped %s\n", sk)
			}
		}
		census, fail, err := d.Drive()
		if err != nil {
			return err
		}
		if fail != nil {
			fmt.Fprintf(stdout, "%sreplay: sttcp chaos -seed %d -runs 1%s\n", fail.Found.Report(), fail.Job.Seed, grayFlag)
			fmt.Fprintf(stdout, "--- minimized after %d extra runs ---\n%s", fail.ShrinkRuns, fail.Result.Report())
			last = fail.Result
		} else if d.Detail {
			if last, err = d.Run(last.Plan, true); err != nil {
				return err
			}
		}
		// A failing run's artifacts carry its invariant verdicts.
		art.Note(last.Trace, last.RunReport())
		if err := art.Write(stdout); err != nil {
			return err
		}
		if fail != nil {
			return fmt.Errorf("seed %d violated an invariant", fail.Job.Seed)
		}
		fmt.Fprintf(stdout, "sttcp chaos: %d runs, all invariants held (%d takeovers, %d non-FT transitions, %d events skipped as unsurvivable)\n",
			*runs, census.Takeovers, census.NonFT, census.Skipped)
		fmt.Fprintf(stdout, "invariants checked: %v\n", experiment.InvariantNames())
		return nil
	}
}
