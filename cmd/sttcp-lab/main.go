// Command sttcp-lab runs scripted ST-TCP failure scenarios — the
// conference-demo workflow ("start a transfer, pull the plug at 500 ms,
// watch the client") as reproducible text files.
//
//	sttcp-lab scenarios/demo1.sttcp
//	sttcp-lab -trace scenarios/nicfailure.sttcp
//	echo 'client download 8MiB
//	at 300ms crash primary
//	run 30s
//	expect takeover
//	expect clients-done' | sttcp-lab -
//
// The scenario language is documented in internal/scenario; the scenarios/
// directory ships ready-made scripts for every demonstration in the paper.
// The exit status is non-zero if any `expect` fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sttcp-lab:", err)
		os.Exit(1)
	}
}

func run() error {
	showTrace := flag.Bool("trace", false, "dump the full event trace after the run")
	timeline := flag.Bool("timeline", false, "render the run's causal span timeline")
	traceOut := cliflags.TraceOut("the run")
	reportOut := cliflags.ReportOut("the run")
	telWindow := cliflags.TelemetryWindow(0)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: sttcp-lab [-trace] [-timeline] [-trace-out FILE] [-report-out FILE] <script.sttcp | ->")
	}
	if *reportOut != "" && *telWindow == 0 {
		*telWindow = 100 * time.Millisecond
	}
	var text []byte
	var err error
	if flag.Arg(0) == "-" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		return err
	}
	sc, err := scenario.Parse(string(text))
	if err != nil {
		return err
	}
	// Exports want the per-segment detail spans that are off by default.
	res, err := scenario.RunWith(sc, scenario.RunOptions{
		TraceDetail:     *timeline || *traceOut != "",
		TelemetryWindow: *telWindow,
	})
	if err != nil {
		return err
	}
	for _, line := range res.Clients {
		fmt.Println(line)
	}
	fmt.Println()
	for _, e := range res.Errors {
		fmt.Printf("ERROR injection failed: %s\n", e)
	}
	failed := 0
	for _, c := range res.Checks {
		status := "PASS"
		if !c.Passed {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s  expect %-14s (line %d)", status, c.Cond, c.Line)
		if c.Detail != "" {
			fmt.Printf("  — %s", c.Detail)
		}
		fmt.Println()
	}
	if *showTrace {
		fmt.Println()
		fmt.Println(res.Tracer.Dump())
	}
	if *timeline {
		fmt.Println()
		fmt.Print(res.Tracer.RenderSpanTimeline(trace.TimelineOptions{Width: 100, Epoch: sim.Epoch}))
	}
	if err := cliflags.WriteChromeTrace(*traceOut, res.Tracer); err != nil {
		return err
	}
	if err := cliflags.WriteReport(*reportOut, res.Report); err != nil {
		return err
	}
	if failed > 0 || len(res.Errors) > 0 {
		return fmt.Errorf("%d expectation(s) failed, %d injection error(s)", failed, len(res.Errors))
	}
	return nil
}
