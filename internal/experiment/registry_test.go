package experiment

import (
	"reflect"
	"testing"
	"time"
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
	cap := mustDemo(t, "capacity")
	serial, err := cap.Run(Params{Workers: 1})
	if err != nil {
		t.Fatalf("serial capacity: %v", err)
	}
	parallel, err := cap.Run(Params{Workers: 3})
	if err != nil {
		t.Fatalf("parallel capacity: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("capacity diverged across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}

	if testing.Short() {
		t.Skip("demo2-dist identity check skipped in -short")
	}
	// Three crash phases, not the demo's eight: the contract is the
	// runner's, whatever the sample count.
	one, _, err := runDemo2Sampled(7, 200*time.Millisecond, 3, 1)
	if err != nil {
		t.Fatalf("serial demo2-dist: %v", err)
	}
	three, _, err := runDemo2Sampled(7, 200*time.Millisecond, 3, 3)
	if err != nil {
		t.Fatalf("parallel demo2-dist: %v", err)
	}
	if one != three {
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

// TestRegistryArtifactsMatchDeclaration: the CLI refuses -metrics-out and
// the trace flags before a run on the strength of Demo.NoMetrics and
// Demo.NoTracer, so each demo must fill exactly what it declares — and
// every demo that builds a testbed must hand its recorder back.
func TestRegistryArtifactsMatchDeclaration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered demo once")
	}
	p := Params{Seed: 3, Size: 1 << 20, Conns: 20,
		Periods: []time.Duration{200 * time.Millisecond}}
	for _, d := range Demos() {
		res, err := d.Run(p)
		if err != nil {
			t.Errorf("%s: %v", d.Name, err)
			continue
		}
		if (res.Metrics == nil) != d.NoMetrics {
			t.Errorf("%s: NoMetrics=%v but Result.Metrics nil=%v", d.Name, d.NoMetrics, res.Metrics == nil)
		}
		if (res.Tracer == nil) != d.NoTracer {
			t.Errorf("%s: NoTracer=%v but Result.Tracer nil=%v", d.Name, d.NoTracer, res.Tracer == nil)
		}
		// The one with no run to single out: a bare serial pair.
		if d.NoTracer && d.Name != "capacity" {
			t.Errorf("%s builds a testbed, so it must return its recorder", d.Name)
		}
	}
}
