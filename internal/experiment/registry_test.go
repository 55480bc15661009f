package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func mustDemo(t *testing.T, name string) Demo {
	t.Helper()
	d, ok := DemoByName(name)
	if !ok {
		t.Fatalf("demo %q is not registered", name)
	}
	return d
}

// TestRegistryParallelMatchesSerial pins the sweep contract at the
// registry level: demos that fan independent simulations across the
// worker pool must produce identical output for any worker count,
// because every job owns a sealed simulator and results merge in input
// order, never completion order.
func TestRegistryParallelMatchesSerial(t *testing.T) {
	printed := func(workers int) string {
		_, printer, err := mustDemo(t, "capacity").Run(Params{Workers: workers})
		if err != nil {
			t.Fatalf("capacity, %d workers: %v", workers, err)
		}
		var b strings.Builder
		if err := printer(&b, nil); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if serial, parallel := printed(1), printed(3); serial != parallel {
		t.Errorf("capacity diverged across worker counts:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}

	if testing.Short() {
		t.Skip("demo2-dist identity check skipped in -short")
	}
	// Three crash phases, not the demo's eight: the contract is the
	// runner's, whatever the sample count.
	one, err := runDemo2Sampled(Options{Seed: 7}, 200*time.Millisecond, 3, 1)
	if err != nil {
		t.Fatalf("serial demo2-dist: %v", err)
	}
	three, err := runDemo2Sampled(Options{Seed: 7}, 200*time.Millisecond, 3, 3)
	if err != nil {
		t.Fatalf("parallel demo2-dist: %v", err)
	}
	if one, three := distribution(one), distribution(three); one != three {
		t.Errorf("demo2-dist diverged across worker counts:\nserial:   %+v\nparallel: %+v", one, three)
	}
}

// TestRegistryExtendedDemos: the registry carries both the paper's five
// demonstrations and the extended studies; 'all' consumers rely on the
// Extended flag to separate them.
func TestRegistryExtendedDemos(t *testing.T) {
	var core, extended int
	for _, d := range Demos() {
		if d.Extended {
			extended++
		} else {
			core++
		}
	}
	if core == 0 || extended == 0 {
		t.Fatalf("registry should carry both core and extended demos (core=%d extended=%d)", core, extended)
	}
	for _, name := range []string{"capacity", "demo2-dist", "output-commit", "witness", "nicload", "gray", "scale", "table1"} {
		if !mustDemo(t, name).Extended {
			t.Errorf("demo %q should be marked Extended", name)
		}
	}
	for _, name := range []string{"demo1", "demo2", "demo3", "demo4", "demo5"} {
		if mustDemo(t, name).Extended {
			t.Errorf("paper demo %q must not be marked Extended", name)
		}
	}
}

// TestRegistryRunsCarryTheirArtifacts runs every registered demo once: the
// CLI refuses the artifact flags before a run on the strength of
// Demo.HasTestbed, so a demo has runs exactly when it says so, and every run
// carries what the flags export — a snapshot, a recorder, the timeline the
// window asked for, and a report that ends when the run did.
func TestRegistryRunsCarryTheirArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered demo once")
	}
	p := Params{Seed: 3, Size: 1 << 20, Conns: 20, TelemetryWindow: 100 * time.Millisecond,
		Periods: []time.Duration{200 * time.Millisecond}}
	for _, d := range Demos() {
		runs, printer, err := d.Run(p)
		if err != nil {
			t.Errorf("%s: %v", d.Name, err)
			continue
		}
		if printer == nil || (len(runs) > 0) != d.HasTestbed() {
			t.Errorf("%s: HasTestbed=%v but %d runs (printer nil=%v)", d.Name, d.HasTestbed(), len(runs), printer == nil)
		}
		for i, run := range runs {
			tb := run.Testbed
			rep := tb.Report(d.Name, p)
			switch {
			case tb.Tracer == nil || tb.Tracer.Len() == 0:
				t.Errorf("%s run %d: no recorded trace", d.Name, i)
			case rep.Metrics == nil || len(rep.Metrics.Samples) == 0:
				t.Errorf("%s run %d: report carries no metrics", d.Name, i)
			case rep.Telemetry == nil || rep.Telemetry.Windows == 0:
				t.Errorf("%s run %d: the %v window sampled no timeline", d.Name, i, p.TelemetryWindow)
			case !rep.FinishedAt.Equal(tb.Sim.Now()) || !rep.FinishedAt.After(sim.Epoch):
				t.Errorf("%s run %d: report finished at %v, the run at %v", d.Name, i, rep.FinishedAt, tb.Sim.Now())
			}
		}
	}
}
