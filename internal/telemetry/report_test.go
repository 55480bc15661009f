package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func sampleReport() *Report {
	return &Report{
		Version:    ReportVersion,
		Demo:       "demo2",
		Seed:       42,
		Params:     map[string]string{"hb": "200ms"},
		FinishedAt: sim.Epoch.Add(10 * time.Second),
		Telemetry: &Timeline{
			Window:  100 * time.Millisecond,
			Start:   sim.Epoch,
			Windows: 4,
			Series: []SeriesData{
				{Name: "client.response_latency.p99", Unit: "seconds", Points: []float64{0.001, 0.001, 0.5, 0.001}},
				{Name: "tcp.segments_sent.rate", Unit: "count/window", Points: []float64{10, 12, 0, 11}},
			},
		},
		Anatomy: []Phases{{
			Component: "backup/sttcp", FaultKind: "host-crash",
			Detection: 600 * time.Millisecond, Takeover: 5 * time.Millisecond,
			RetransmitWait: 300 * time.Millisecond, ClientStall: 900 * time.Millisecond,
		}},
		Chaos: &ChaosReport{
			Schedule: "seed=42 2 events",
			Events:   2,
			Invariants: []InvariantVerdict{
				{Name: "no-data-loss"},
				{Name: "single-active-stack"},
			},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.FinishedAt.Equal(r.FinishedAt) {
		t.Errorf("FinishedAt round-tripped to %v", back.FinishedAt)
	}
	back.FinishedAt, back.Telemetry.Start = r.FinishedAt, r.Telemetry.Start
	if !reflect.DeepEqual(r, back) {
		t.Errorf("report did not round-trip.\nwrote %+v\nread  %+v", r, back)
	}
}

func TestReadRejectsUnknownVersion(t *testing.T) {
	_, err := Read(strings.NewReader(`{"version": 99}`))
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("unknown version error = %v, want version complaint", err)
	}
}

func TestPhasesFromAnatomy(t *testing.T) {
	a := trace.FailoverAnatomy{
		Component:       "backup/sttcp",
		FaultKind:       trace.KindHostCrash,
		Detection:       600 * time.Millisecond,
		Takeover:        5 * time.Millisecond,
		RetransmitWait:  295 * time.Millisecond,
		PipelineDrain:   40 * time.Millisecond,
		DeliveryLatency: 30 * time.Millisecond,
		ClientStall:     890 * time.Millisecond,
	}
	p := PhasesFromAnatomy(a)
	if p.Detection != a.Detection || p.FaultKind != trace.KindHostCrash.String() {
		t.Errorf("PhasesFromAnatomy dropped fields: %+v", p)
	}
	if p.Residual != a.Residual() {
		t.Errorf("Residual = %v, want %v", p.Residual, a.Residual())
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 1}, 2); got != "▁█" {
		t.Errorf("Sparkline(0,1) = %q, want low+high glyphs", got)
	}
	// Downsampling takes the max per cell so a spike survives.
	pts := make([]float64, 100)
	pts[57] = 9
	got := Sparkline(pts, 10)
	if !strings.ContainsRune(got, '█') {
		t.Errorf("spike lost in downsampling: %q", got)
	}
	if Sparkline(nil, 10) != "" {
		t.Error("empty series should render empty")
	}
	// All-zero series renders as a flat floor, not NaN garbage.
	if got := Sparkline([]float64{0, 0, 0}, 3); got != "▁▁▁" {
		t.Errorf("flat series = %q, want floor glyphs", got)
	}
}

func TestRenderDashboardGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderDashboard(&buf, sampleReport(), RenderOptions{Width: 20}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"demo=demo2", "seed=42",
		"telemetry: 4 windows x 100ms",
		"client.response_latency.p99",
		"failover anatomy:",
		"no-data-loss", "held",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
	// Deterministic: rendering twice is byte-identical.
	var again bytes.Buffer
	if err := RenderDashboard(&again, sampleReport(), RenderOptions{Width: 20}); err != nil {
		t.Fatal(err)
	}
	if out != again.String() {
		t.Error("dashboard rendering is not deterministic")
	}
}
