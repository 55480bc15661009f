package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/experiment"
	"repro/internal/trace"
)

// setupDemo is `sttcp demo`: it runs registry demos and prints what the
// conference audience would have seen — the client's progress across a
// failover, the measured failover and detection times, Table 1's rows.
func setupDemo(fs *flag.FlagSet) func(io.Writer) error {
	demo := fs.String("demo", "all", "demonstration to run: a registry name (demo1..demo5, table1, scale, ...), a bare number 1..5, or 'all' (the paper's five)")
	seed := cliflags.Seed(fs, 42, "")
	eager := fs.Bool("eager", false, "enable the eager-retransmit takeover extension where applicable")
	conns := fs.Int("conns", 0, "override the demo's concurrent-connection count where applicable (scale demo)")
	var periods []time.Duration
	fs.Func("periods", "override the heartbeat-period sweep where applicable (demo2; comma-separated, e.g. 200ms,1s)", func(s string) error {
		for _, f := range strings.Split(s, ",") {
			p, err := time.ParseDuration(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			periods = append(periods, p)
		}
		return nil
	})
	v := registerView(fs)
	art := cliflags.Register(fs, "the final demo")

	return func(stdout io.Writer) error {
		selected, err := selectDemos(*demo)
		if err != nil {
			return err
		}

		// Refuse up front what the selection cannot deliver, rather than
		// after a 2,000-connection run.
		hasTestbed := false
		for _, d := range selected {
			hasTestbed = hasTestbed || d.HasTestbed()
		}
		if err := art.Check(hasTestbed, v.trace || v.timeline); err != nil {
			return usageErr("%w (-demo %s)", err, *demo)
		}

		var failed error
		for _, d := range selected {
			p := experiment.Params{
				Seed: *seed, Eager: *eager, Conns: *conns, Periods: periods,
				// Exporting or rendering the span timeline wants the
				// per-segment detail spans that are otherwise off.
				TraceDetail:     art.TraceOut != "" || v.timeline,
				TelemetryWindow: art.Window(),
			}
			runs, printer, err := d.Run(p)
			if err != nil {
				return fmt.Errorf("%s: %w", d.Name, err)
			}
			fmt.Fprintf(stdout, "\n=== %s: %s ===\n\n", d.Name, d.Title)
			err = printer(stdout, func(r *experiment.Run, zoom *trace.FailoverAnatomy) {
				v.traces(stdout, r.Testbed.Tracer, zoom)
			})
			if err != nil && failed == nil {
				failed = fmt.Errorf("%s: %w", d.Name, err)
			}
			if len(runs) > 0 {
				tb := runs[len(runs)-1].Testbed
				art.Note(tb.Tracer, tb.Report(d.Name, p))
			}
		}
		// Artifacts are written before a failed demo is reported: a failing
		// matrix is exactly the run whose report is wanted.
		if err := art.Write(stdout); err != nil {
			return err
		}
		return failed
	}
}

// selectDemos resolves -demo: 'all' means the paper's demonstrations; the
// extended studies (capacity sweeps, Table 1, the 2,000-connection scale
// run, ...) are heavier and run only when named.
func selectDemos(name string) ([]experiment.Demo, error) {
	var selected []experiment.Demo
	if name == "all" {
		for _, d := range experiment.Demos() {
			if !d.Extended {
				selected = append(selected, d)
			}
		}
		return selected, nil
	}
	if len(name) == 1 && name >= "1" && name <= "5" {
		name = "demo" + name // accept the historical bare numbers
	}
	d, ok := experiment.DemoByName(name)
	if !ok {
		var names []string
		for _, d := range experiment.Demos() {
			names = append(names, d.Name)
		}
		return nil, usageErr("unknown -demo %q (want one of %s, or all)", name, strings.Join(names, ", "))
	}
	return []experiment.Demo{d}, nil
}
