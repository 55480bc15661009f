// Package cliflags registers the flags the ST-TCP command-line tools
// share — -seed, -metrics-out, -trace-out, -report-out — so they are spelled,
// documented, and behave identically across every CLI, and provides the
// matching artifact writers.
//
// Each helper registers on flag.CommandLine and must be called before
// flag.Parse. The writers are no-ops on an empty path, so a main can call
// them unconditionally after its run.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Seed registers the canonical -seed flag. A non-empty note is appended
// to the shared usage string (e.g. "run i uses seed+i").
func Seed(def int64, note string) *int64 {
	usage := "simulation seed"
	if note != "" {
		usage += "; " + note
	}
	return flag.Int64("seed", def, usage)
}

// MetricsOut registers the canonical -metrics-out flag. subject names
// which run's snapshot is exported ("the final demo", "the last run").
func MetricsOut(subject string) *string {
	return flag.String("metrics-out", "",
		"write "+subject+"'s metric snapshot as JSON to this file ('-' for stdout)")
}

// TraceOut registers the canonical -trace-out flag.
func TraceOut(subject string) *string {
	return flag.String("trace-out", "",
		"write "+subject+"'s causal span trace as Chrome trace-event JSON (load in ui.perfetto.dev)")
}

// WriteMetrics exports snap to path: "-" prints the human-readable
// rendering to stdout, anything else gets the JSON encoding plus a
// confirmation line. A no-op when path is empty; an error when the
// selected run never produced a snapshot.
func WriteMetrics(path string, snap *metrics.Snapshot) error {
	if path == "" {
		return nil
	}
	if snap == nil {
		return fmt.Errorf("-metrics-out: the selected run produced no metric snapshot")
	}
	if path == "-" {
		fmt.Println(snap.String())
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := snap.WriteJSON(f); err != nil {
		return err
	}
	fmt.Printf("\n(metric snapshot written to %s)\n", path)
	return nil
}

// ReportOut registers the canonical -report-out flag. subject names which
// run's report is exported.
func ReportOut(subject string) *string {
	return flag.String("report-out", "",
		"write "+subject+"'s unified run report (config, metrics, telemetry time series, failover anatomy) as JSON ('-' for stdout); inspect with sttcp-report")
}

// TelemetryWindow registers the canonical -telemetry-window flag. A zero
// duration disables time-series sampling entirely.
func TelemetryWindow(def time.Duration) *time.Duration {
	return flag.Duration("telemetry-window", def,
		"sample every metric into windowed time series at this period (0 disables telemetry)")
}

// WriteReport exports rep to path ("-" for stdout). A no-op when path is
// empty; an error when the selected run produced no report.
func WriteReport(path string, rep *telemetry.Report) error {
	if path == "" {
		return nil
	}
	if rep == nil {
		return fmt.Errorf("-report-out: the selected run produced no report")
	}
	if err := telemetry.WriteFile(path, rep); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("\n(run report written to %s — render it with sttcp-report %s)\n", path, path)
	}
	return nil
}

// WriteChromeTrace exports the recorder's span trace to path as Chrome
// trace-event JSON. A no-op when path is empty; an error when the
// selected run recorded no trace.
func WriteChromeTrace(path string, tracer *trace.Recorder) error {
	if path == "" {
		return nil
	}
	if tracer == nil {
		return fmt.Errorf("-trace-out: the selected run recorded no span trace")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := tracer.WriteChromeTrace(f, sim.Epoch); err != nil {
		return err
	}
	fmt.Printf("\n(span trace written to %s — load it in ui.perfetto.dev or chrome://tracing)\n", path)
	return nil
}
