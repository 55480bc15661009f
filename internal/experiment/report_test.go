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
// report — the workload behind the cross-run regression observatory's
// genuine-pair check.
func scaleReport(t *testing.T) *telemetry.Report {
	t.Helper()
	p := Params{Seed: 91, Conns: 25, Size: 256 << 10,
		TelemetryWindow: 100 * time.Millisecond}
	d, ok := DemoByName("scale")
	if !ok {
		t.Fatal("scale demo not registered")
	}
	res, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return BuildReport(p, res)
}

// TestGenuinePairDiffsClean is the observatory's soundness half: the same
// run twice must produce byte-identical reports, and `sttcp report`'s diff
// must find nothing to flag. If this fails the report captured something
// non-deterministic, which makes every cross-run comparison meaningless.
func TestGenuinePairDiffsClean(t *testing.T) {
	first := scaleReport(t)
	second := scaleReport(t)

	d := telemetry.DiffReports(first, second, telemetry.DiffOptions{})
	if !d.Ok() {
		t.Fatalf("genuine pair flagged as regression:\n%v", d.Regressions)
	}

	fj, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fj, sj) {
		t.Errorf("two runs of the same seed produced different reports (%d vs %d bytes)", len(fj), len(sj))
	}
}

// TestDegradedReportFailsDiff is the observatory's sensitivity half: take
// a genuine report, worsen it the way a real regression would — slower
// latency series and failover anatomy, or the evidence gone altogether —
// and the diff must flag it.
func TestDegradedReportFailsDiff(t *testing.T) {
	const p99 = "client.response_latency.p99"
	base := scaleReport(t)
	cases := []struct {
		name    string
		degrade func(r *telemetry.Report)
	}{
		{"10x p99 and 3x detection latency", func(r *telemetry.Report) {
			for i := range r.Telemetry.Series {
				s := &r.Telemetry.Series[i]
				if s.Name == p99 {
					for j := range s.Points {
						s.Points[j] *= 10
					}
				}
			}
			for i := range r.Anatomy {
				r.Anatomy[i].Detection *= 3
			}
		}},
		{"p99 latency series missing from the candidate", func(r *telemetry.Report) {
			kept := r.Telemetry.Series[:0]
			for _, s := range r.Telemetry.Series {
				if s.Name != p99 {
					kept = append(kept, s)
				}
			}
			if len(kept) == len(r.Telemetry.Series) {
				t.Fatalf("base report has no %s series; the case proves nothing", p99)
			}
			r.Telemetry.Series = kept
		}},
		{"telemetry timeline missing from the candidate", func(r *telemetry.Report) {
			r.Telemetry = nil
		}},
	}
	for _, c := range cases {
		degraded := scaleReport(t)
		c.degrade(degraded)
		if d := telemetry.DiffReports(base, degraded, telemetry.DiffOptions{}); d.Ok() {
			t.Errorf("%s slipped through the diff gate", c.name)
		}
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
	res, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(p, res)

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
