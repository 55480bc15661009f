// Command sttcp-scenarios executes the full single-failure matrix of the
// paper's Table 1 — five failure classes, each injected at the primary and
// at the backup — and prints, per scenario, the observed symptom, the
// recovery action taken, the detection latency, and whether the client's
// workload survived untouched.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/experiment"
	"repro/internal/sttcp"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sttcp-scenarios:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := cliflags.Seed(42, "scenario i runs at seed+i")
	showTrace := flag.Bool("trace", false, "dump the event trace per scenario")
	reportOut := cliflags.ReportOut("the last scenario")
	telWindow := cliflags.TelemetryWindow(0)
	flag.Parse()
	if *reportOut != "" && *telWindow == 0 {
		*telWindow = 100 * time.Millisecond
	}

	fmt.Println("Table 1: single failure scenarios (workload: continuous echo, failure injected at t=2s)")
	fmt.Println()
	fmt.Printf("%-32s %-12s %-44s %s\n", "scenario", "detection", "recovery action", "client ok")

	failures := 0
	var lastReport *telemetry.Report
	for i, sc := range experiment.Scenarios {
		res, err := experiment.RunScenarioOpts(*seed+int64(i), sc, *telWindow)
		if err != nil {
			return fmt.Errorf("%v: %w", sc, err)
		}
		lastReport = scenarioReport(*seed+int64(i), sc, res)
		action := describeAction(res)
		det := "-"
		if res.DetectionTime > 0 {
			det = res.DetectionTime.Round(time.Millisecond).String()
		}
		fmt.Printf("%-32s %-12s %-44s %v\n", sc, det, action, res.ClientOK)
		if !res.ClientOK {
			failures++
		}
		if *showTrace {
			fmt.Println(res.Tracer.Dump())
		}
	}
	fmt.Println()
	if failures == 0 {
		fmt.Println("All ten scenarios masked from the client.")
	}
	// The report is written before the failure is returned: a failing
	// matrix is exactly the run whose artifact is wanted.
	if err := cliflags.WriteReport(*reportOut, lastReport); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d scenario(s) disturbed the client", failures)
	}
	return nil
}

// scenarioReport assembles the run-report artifact for one Table 1 case.
func scenarioReport(seed int64, sc experiment.Scenario, res experiment.ScenarioResult) *telemetry.Report {
	rep := &telemetry.Report{
		Version:   telemetry.ReportVersion,
		Demo:      "table1",
		Seed:      seed,
		Params:    map[string]string{"scenario": fmt.Sprint(sc)},
		Metrics:   res.Metrics,
		Telemetry: res.Telemetry,
	}
	if res.Metrics != nil {
		rep.FinishedAt = res.Metrics.At
	}
	if res.Tracer != nil {
		for _, a := range res.Tracer.Anatomy() {
			rep.Anatomy = append(rep.Anatomy, telemetry.PhasesFromAnatomy(a))
		}
	}
	return rep
}

func describeAction(res experiment.ScenarioResult) string {
	switch {
	case res.BackupState == sttcp.StateTakenOver:
		return "backup took over; primary powered down"
	case res.PrimaryState == sttcp.StateNonFT:
		return "primary in non-FT mode; backup shut down"
	case res.RecoveryEvents > 0:
		return fmt.Sprintf("missed bytes recovered (%d events); no failover", res.RecoveryEvents)
	default:
		return "absorbed by normal TCP retransmission; no failover"
	}
}
