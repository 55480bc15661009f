package experiment

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/serial"
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
// registry level: the capacity demo fans its connection counts across the
// worker pool, every job at once, and gets what a serial loop over the same
// jobs gets — each job owns a sealed simulator, and results merge in input
// order, never completion order.
func TestRegistryParallelMatchesSerial(t *testing.T) {
	counts := []int{1, 25, 100, 150}
	job := func(i int) (SerialCapacityResult, error) {
		return runHBLinkCapacity(counts[i], 200*time.Millisecond, 10*time.Second, serial.DefaultBitsPerSecond)
	}
	parallel, err := fanIdx(len(counts), job)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if one, err := job(i); err != nil || !reflect.DeepEqual(one, parallel[i]) {
			t.Errorf("%d connections: serial %+v (%v), parallel %+v", counts[i], one, err, parallel[i])
		}
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
