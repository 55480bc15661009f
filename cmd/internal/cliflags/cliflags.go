// Package cliflags is the one flag-and-artifact path the sttcp subcommands
// share: -seed and the artifact flags are spelled and documented once, and
// what happens to the artifacts around a run happens here — the window a
// report implies, refusing beforehand what the selection cannot produce,
// writing the files afterwards.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Seed registers the canonical -seed flag. A non-empty note is appended
// to the shared usage string (e.g. "run i uses seed+i").
func Seed(fs *flag.FlagSet, def int64, note string) *int64 {
	usage := "simulation seed"
	if note != "" {
		usage += "; " + note
	}
	return fs.Int64("seed", def, usage)
}

// Kind selects the artifact flags a subcommand takes.
type Kind uint8

const (
	Metrics Kind = 1 << iota // -metrics-out
	Trace                    // -trace-out
	Events                   // -json
	Report                   // -report-out
	Window                   // -telemetry-window
)

// Artifacts holds a subcommand's artifact flags and, after Note, what the
// last run left for each of them.
type Artifacts struct {
	MetricsOut, TraceOut, EventsOut, ReportOut string
	window                                     time.Duration

	snap   *metrics.Snapshot
	tracer *trace.Recorder
	report *telemetry.Report
}

// Register registers the flags in which on fs. subject names whose
// artifacts are exported ("the final demo", "the last run").
func Register(fs *flag.FlagSet, subject string, which Kind) *Artifacts {
	a := &Artifacts{}
	if which&Metrics != 0 {
		fs.StringVar(&a.MetricsOut, "metrics-out", "",
			"write "+subject+"'s metric snapshot as JSON to this file ('-' for stdout)")
	}
	if which&Trace != 0 {
		fs.StringVar(&a.TraceOut, "trace-out", "",
			"write "+subject+"'s causal span trace as Chrome trace-event JSON (load in ui.perfetto.dev)")
	}
	if which&Events != 0 {
		fs.StringVar(&a.EventsOut, "json", "",
			"write "+subject+"'s flat event trace as JSON to this file")
	}
	if which&Report != 0 {
		fs.StringVar(&a.ReportOut, "report-out", "",
			"write "+subject+"'s unified run report (config, metrics, telemetry time series, failover anatomy) as JSON ('-' for stdout); inspect with sttcp report")
	}
	if which&Window != 0 {
		fs.DurationVar(&a.window, "telemetry-window", 0,
			"sample every metric into windowed time series at this period (0 disables telemetry; -report-out defaults it to 100ms)")
	}
	return a
}

// Window is the telemetry sampling period the run should use: asking for a
// report without ever setting a window defaults the sampler on.
func (a *Artifacts) Window() time.Duration {
	if a.window == 0 && a.ReportOut != "" {
		return 100 * time.Millisecond
	}
	return a.window
}

// Check rejects, before anything runs, every artifact flag and trace view
// (traceViews: the ones the subcommand renders itself) asked of a selection
// that builds no testbed: there is nothing to snapshot, trace or sample.
func (a *Artifacts) Check(hasTestbed, traceViews bool) error {
	asked := a.MetricsOut != "" || a.TraceOut != "" || a.EventsOut != "" || a.ReportOut != "" || a.window != 0 || traceViews
	if asked && !hasTestbed {
		return fmt.Errorf("-metrics-out, -report-out, -telemetry-window, -trace-out, -json, -trace, -timeline: the selection builds no testbed to observe")
	}
	return nil
}

// Note remembers what a finished run left behind; Write exports the last
// run noted.
func (a *Artifacts) Note(snap *metrics.Snapshot, tracer *trace.Recorder, report *telemetry.Report) {
	a.snap, a.tracer, a.report = snap, tracer, report
}

// Write exports every requested artifact of the noted run (a subcommand
// notes a run before it writes, and every run has all it registered flags
// for) — each one is attempted even when another fails; confirmation lines
// (and "-" payloads) go to stdout.
func (a *Artifacts) Write(stdout io.Writer) error {
	return errors.Join(
		export(stdout, a.MetricsOut, "-metrics-out", "metric snapshot", "",
			func(w io.Writer) error { return a.snap.WriteJSON(w) }),
		export(stdout, a.TraceOut, "-trace-out", "span trace", " — load it in ui.perfetto.dev or chrome://tracing",
			func(w io.Writer) error { return a.tracer.WriteChromeTrace(w, sim.Epoch) }),
		export(stdout, a.EventsOut, "-json", "event trace", "",
			func(w io.Writer) error { return a.tracer.WriteJSON(w, sim.Epoch) }),
		export(stdout, a.ReportOut, "-report-out", "run report", " — render it with sttcp report "+a.ReportOut,
			func(w io.Writer) error { return a.report.Write(w) }),
	)
}

// export writes one artifact to path: "" skips it, "-" is stdout, anything
// else a file followed by a confirmation line.
func export(stdout io.Writer, path, name, what, hint string, write func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(stdout)
	}
	if err := WriteFile(path, write); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(stdout, "\n(%s written to %s%s)\n", what, path, hint)
	return nil
}

// WriteFile creates path, fills it with write, and reports the first error
// of the three steps (the close included: these are files someone asked for).
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
