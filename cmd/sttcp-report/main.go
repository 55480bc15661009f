// Command sttcp-report inspects the unified run-report artifacts the other
// CLIs emit via -report-out: it renders a single report as an ASCII
// dashboard (sparkline time series, failover anatomy, chaos invariant
// verdicts), and diffs two reports as a cross-run regression gate.
//
// Usage:
//
//	sttcp-report report.json                  # dashboard
//	sttcp-report -filter latency report.json  # only series matching a substring
//	sttcp-report -diff base.json cand.json    # exit 1 when cand regressed
//
// The diff's exit status is machine-readable: 0 means no regression beyond
// tolerance, 1 means at least one (latency series worsened or went
// missing, a failover phase drifted, an invariant newly violated), 2 means
// usage or I/O error. Reports contain only virtual-time figures, so a
// genuine pair — the same run twice, or on two machines — diffs clean byte
// for byte.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/telemetry"
)

func main() {
	diff := flag.Bool("diff", false, "compare two reports (BASE CAND) and exit 1 on regression")
	width := flag.Int("width", 60, "sparkline width in cells")
	filter := flag.String("filter", "", "only render series whose name contains this substring")
	latencyTol := flag.Float64("latency-tolerance", 0.25, "with -diff: allowed fractional worsening of latency series peaks/means")
	phaseTol := flag.Float64("phase-tolerance", 0.25, "with -diff: allowed fractional worsening of failover phase durations")
	flag.Parse()

	if err := run(*diff, *width, *filter, *latencyTol, *phaseTol); err != nil {
		fmt.Fprintln(os.Stderr, "sttcp-report:", err)
		os.Exit(2)
	}
}

func run(diff bool, width int, filter string, latencyTol, phaseTol float64) error {
	if diff {
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: sttcp-report -diff BASE.json CAND.json")
		}
		base, err := telemetry.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		cand, err := telemetry.ReadFile(flag.Arg(1))
		if err != nil {
			return err
		}
		d := telemetry.DiffReports(base, cand, telemetry.DiffOptions{
			LatencyTolerance: latencyTol,
			PhaseTolerance:   phaseTol,
		})
		if err := telemetry.RenderDiff(os.Stdout, d); err != nil {
			return err
		}
		if !d.Ok() {
			os.Exit(1)
		}
		return nil
	}

	if flag.NArg() != 1 {
		return fmt.Errorf("usage: sttcp-report [-filter SUBSTR] [-width N] REPORT.json (or -diff BASE CAND)")
	}
	rep, err := telemetry.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	return telemetry.RenderDashboard(os.Stdout, rep, telemetry.RenderOptions{
		Width:  width,
		Filter: filter,
	})
}
