// Package cliflags is the one flag-and-artifact path the sttcp subcommands
// share: -seed and the two artifact flags are spelled and documented once,
// and what happens to the artifacts around a run happens here — the window a
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

// Artifacts holds a subcommand's artifact flags and, after Note, what the
// last run left for each of them.
type Artifacts struct {
	TraceOut, ReportOut string

	tracer *trace.Recorder
	report *telemetry.Report
}

// Register registers -trace-out and -report-out on fs. subject names whose
// artifacts are exported ("the final demo", "the last run").
func Register(fs *flag.FlagSet, subject string) *Artifacts {
	a := &Artifacts{}
	fs.StringVar(&a.TraceOut, "trace-out", "",
		"write "+subject+"'s causal span trace as Chrome trace-event JSON (load in ui.perfetto.dev)")
	fs.StringVar(&a.ReportOut, "report-out", "",
		"write "+subject+"'s unified run report (config, metrics, telemetry time series, failover anatomy) as JSON ('-' for stdout); inspect with sttcp report")
	return a
}

// Window is the telemetry sampling period the run should use: a report
// samples at telemetry.DefaultWindow, and without one nothing is sampled.
func (a *Artifacts) Window() time.Duration {
	if a.ReportOut == "" {
		return 0
	}
	return telemetry.DefaultWindow
}

// Check rejects, before anything runs, every artifact flag and trace view
// (traceViews: the ones the subcommand renders itself) asked of a selection
// that builds no testbed: there is nothing to trace or report.
func (a *Artifacts) Check(hasTestbed, traceViews bool) error {
	asked := a.TraceOut != "" || a.ReportOut != "" || traceViews
	if asked && !hasTestbed {
		return fmt.Errorf("-report-out, -trace-out, -trace, -timeline: the selection builds no testbed to observe")
	}
	return nil
}

// Note remembers what a finished run left behind; Write exports the last
// run noted.
func (a *Artifacts) Note(tracer *trace.Recorder, report *telemetry.Report) {
	a.tracer, a.report = tracer, report
}

// Write exports every requested artifact of the noted run (a subcommand
// notes a run before it writes) — each one is attempted even when the other
// fails; confirmation lines (and "-" payloads) go to stdout.
func (a *Artifacts) Write(stdout io.Writer) error {
	return errors.Join(
		export(stdout, a.TraceOut, "-trace-out", "span trace", " — load it in ui.perfetto.dev or chrome://tracing",
			func(w io.Writer) error { return a.tracer.WriteChromeTrace(w, sim.Epoch) }),
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
