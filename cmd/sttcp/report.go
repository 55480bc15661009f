package main

import (
	"errors"
	"flag"
	"io"

	"repro/internal/telemetry"
)

// setupReport is `sttcp report`: one -report-out artifact as an ASCII
// dashboard, or with -diff two of them as a regression gate whose exit
// status is 0 for no regression beyond tolerance, 1 for at least one, 2 for
// a usage or I/O error. Reports hold only virtual-time figures, so the same
// run twice, or on two machines, diffs clean.
func setupReport(fs *flag.FlagSet) func(io.Writer) error {
	diff := fs.Bool("diff", false, "compare two reports (BASE CAND) and exit 1 on regression")
	width := fs.Int("width", 60, "sparkline width in cells")
	filter := fs.String("filter", "", "only render series whose name contains this substring")
	latencyTol := fs.Float64("latency-tolerance", 0.25, "with -diff: allowed fractional worsening of latency series peaks/means")
	phaseTol := fs.Float64("phase-tolerance", 0.25, "with -diff: allowed fractional worsening of failover phase durations")

	return func(stdout io.Writer) error {
		want := 1
		if *diff {
			want = 2
		}
		if fs.NArg() != want {
			return usageErr("want REPORT.json, or -diff BASE.json CAND.json")
		}
		var reps []*telemetry.Report
		for _, path := range fs.Args() {
			rep, err := telemetry.ReadFile(path)
			if err != nil {
				return exitError{2, err}
			}
			reps = append(reps, rep)
		}
		if !*diff {
			return telemetry.RenderDashboard(stdout, reps[0], telemetry.RenderOptions{Width: *width, Filter: *filter})
		}
		d := telemetry.DiffReports(reps[0], reps[1], telemetry.DiffOptions{
			LatencyTolerance: *latencyTol,
			PhaseTolerance:   *phaseTol,
		})
		if err := telemetry.RenderDiff(stdout, d); err != nil {
			return err
		}
		if !d.Ok() {
			return errors.New("the candidate regressed beyond tolerance")
		}
		return nil
	}
}
