package main

import (
	"flag"
	"io"

	"repro/internal/telemetry"
)

// setupReport is `sttcp report`: one -report-out artifact as an ASCII
// dashboard. Reports hold only virtual-time figures, so the same run twice,
// or on two machines, writes the same bytes — comparing two is `cmp`.
func setupReport(fs *flag.FlagSet) func(io.Writer) error {
	width := fs.Int("width", 60, "sparkline width in cells")
	filter := fs.String("filter", "", "only render series whose name contains this substring")

	return func(stdout io.Writer) error {
		if fs.NArg() != 1 {
			return usageErr("want one REPORT.json")
		}
		rep, err := telemetry.ReadFile(fs.Arg(0))
		if err != nil {
			return exitError{2, err}
		}
		return telemetry.RenderDashboard(stdout, rep, telemetry.RenderOptions{Width: *width, Filter: *filter})
	}
}
