package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden dashboard file from the current run")

// scaleReport runs the 25-connection failover and assembles its run
// report.
func scaleReport(t *testing.T) *telemetry.Report {
	t.Helper()
	p := Params{Seed: 91, Conns: 25, Size: 256 << 10,
		TelemetryWindow: 100 * time.Millisecond}
	d, ok := DemoByName("scale")
	if !ok {
		t.Fatal("scale demo not registered")
	}
	runs, _, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return runs[0].Testbed.Report(d.Name, p)
}

// TestGenuinePairDiffsClean is what makes comparing two reports exact: the
// same run twice must produce byte-identical reports. If this fails the
// report captured something non-deterministic, and no pinned report hash,
// golden or quoted block downstream of it means anything.
func TestGenuinePairDiffsClean(t *testing.T) {
	fj, err := json.Marshal(scaleReport(t))
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(scaleReport(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fj, sj) {
		t.Errorf("two runs of the same seed produced different reports (%d vs %d bytes)", len(fj), len(sj))
	}
}

// TestDemo2DashboardGolden pins the rendered dashboard of the paper's
// demo 2 at HB 200 ms: the sparkline rows, the failover anatomy table, and
// the header must not drift unnoticed. Regenerate after an intentional
// change with:
//
//	go test ./internal/experiment -run DashboardGolden -update
func TestDemo2DashboardGolden(t *testing.T) {
	p := Params{Seed: 42, Periods: []time.Duration{200 * time.Millisecond},
		TelemetryWindow: 100 * time.Millisecond}
	d, ok := DemoByName("demo2")
	if !ok {
		t.Fatal("demo2 not registered")
	}
	runs, _, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := runs[0].Testbed.Report(d.Name, p)

	var buf bytes.Buffer
	if err := telemetry.RenderDashboard(&buf, rep, telemetry.RenderOptions{Width: 40}); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "golden", "demo2-dashboard.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("dashboard drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
