package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cliflags"
	"repro/internal/experiment"
	"repro/internal/scenario"
)

// setupLab is `sttcp lab`: the conference-demo workflow ("start a
// transfer, pull the plug at 500 ms, watch the client") as a reproducible
// text file in the language of internal/scenario. The exit status is
// non-zero if any `expect` fails.
func setupLab(fs *flag.FlagSet) func(io.Writer) error {
	v := registerView(fs)
	art := cliflags.Register(fs, "the run")

	return func(stdout io.Writer) error {
		if fs.NArg() != 1 {
			return usageErr("want exactly one script (a path, or - for stdin)")
		}
		var text []byte
		var err error
		if fs.Arg(0) == "-" {
			text, err = io.ReadAll(os.Stdin)
		} else {
			text, err = os.ReadFile(fs.Arg(0))
		}
		if err != nil {
			return err
		}
		sc, err := scenario.Parse(string(text))
		if err != nil {
			return err
		}
		// Exports want the per-segment detail spans that are off by default.
		res, err := scenario.Run(sc, experiment.Options{
			TraceDetail:     v.timeline || art.TraceOut != "",
			TelemetryWindow: art.Window(),
		})
		if err != nil {
			return err
		}
		for _, line := range res.Clients {
			fmt.Fprintln(stdout, line)
		}
		fmt.Fprintln(stdout)
		for _, e := range res.Errors {
			fmt.Fprintf(stdout, "ERROR %s\n", e)
		}
		failed := 0
		for _, c := range res.Checks {
			status := "PASS"
			if !c.Passed {
				status = "FAIL"
				failed++
			}
			fmt.Fprintf(stdout, "%s  expect %-14s (line %d)", status, c.Cond, c.Line)
			if c.Detail != "" {
				fmt.Fprintf(stdout, "  — %s", c.Detail)
			}
			fmt.Fprintln(stdout)
		}
		v.traces(stdout, res.Tracer, nil)
		art.Note(res.Tracer, res.Report)
		if err := art.Write(stdout); err != nil {
			return err
		}
		if !res.OK() {
			return fmt.Errorf("%d expectation(s) failed, %d run-time error(s)", failed, len(res.Errors))
		}
		return nil
	}
}
