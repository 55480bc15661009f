package chaos

import (
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestLatencyBurstSpikesWindowedP99 is the observability acceptance test:
// a hand-built plan injects a client-link latency burst mid-run, and
// the run report's windowed p99 response-latency series must spike during
// the burst windows and stay flat before it. This is the paper's
// client-visible view of a network glitch, reconstructed from telemetry
// alone — no trace inspection.
func TestLatencyBurstSpikesWindowedP99(t *testing.T) {
	const (
		burstAt  = 2 * time.Second
		burstDur = 1 * time.Second
		extra    = 150 * time.Millisecond
	)
	p := echoPlan(601, 900)
	p.Faults = []experiment.Fault{{At: burstAt, Kind: experiment.FaultDelay, Host: "client", Delay: extra, Dur: burstDur}}
	res, err := Run(p, experiment.Options{TelemetryWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("invariants violated: %v", res.Violations)
	}
	rep := res.RunReport()
	if rep.Telemetry == nil {
		t.Fatal("run report has no telemetry timeline")
	}
	var p99 *telemetry.SeriesData
	for i, s := range rep.Telemetry.Series {
		if s.Name == "client.response_latency.p99" {
			p99 = &rep.Telemetry.Series[i]
		}
	}
	if p99 == nil {
		t.Fatalf("no client.response_latency.p99 series in timeline (have %d series)", len(rep.Telemetry.Series))
	}

	// A delay burst stretches each echo round by ~2× the one-way extra
	// delay, so the burst-region p99 must land in a bucket at or above
	// 250 ms while the quiet region before stays at or under the 10 ms
	// bucket. Scan a grace period past the burst end: the last delayed
	// round completes after the delay is lifted.
	start := sim.Epoch
	quietMax := regionMax(t, rep.Telemetry, p99.Points, start.Add(500*time.Millisecond), start.Add(burstAt))
	burstMax := regionMax(t, rep.Telemetry, p99.Points, start.Add(burstAt), start.Add(burstAt+burstDur+time.Second))
	if quietMax > 0.011 {
		t.Errorf("pre-burst p99 = %gs, want <= 10ms bucket", quietMax)
	}
	if burstMax < 0.25 {
		t.Errorf("burst-window p99 = %gs, want >= 250ms bucket (delay burst invisible in telemetry)", burstMax)
	}
	if burstMax < 20*quietMax {
		t.Errorf("burst p99 %gs not clearly above quiet p99 %gs", burstMax, quietMax)
	}

	// The same report must carry the chaos section: the plan, and one
	// verdict per registered invariant, all clean.
	if rep.Chaos == nil {
		t.Fatal("run report has no chaos section")
	}
	if rep.Chaos.Events != 2 {
		t.Errorf("chaos section records %d events, want 2 (the client and the burst)", rep.Chaos.Events)
	}
	if got, want := len(rep.Chaos.Invariants), len(experiment.InvariantNames()); got != want {
		t.Errorf("chaos section has %d invariant verdicts, want %d", got, want)
	}
	for _, iv := range rep.Chaos.Invariants {
		if len(iv.Violations) > 0 {
			t.Errorf("chaos section reports %s violated on a clean run: %v", iv.Name, iv.Violations)
		}
	}
}

// regionMax returns the largest series value across the windows covering
// [from, to).
func regionMax(t *testing.T, tl *telemetry.Timeline, points []float64, from, to time.Time) float64 {
	t.Helper()
	if from.Before(tl.Start) {
		t.Fatalf("window range [%v, %v) starts before the timeline", from, to)
	}
	lo, hi := int(from.Sub(tl.Start)/tl.Window), int(to.Sub(tl.Start)/tl.Window)
	if hi >= len(points) {
		hi = len(points) - 1
	}
	max := 0.0
	for i := lo; i <= hi; i++ {
		if points[i] > max {
			max = points[i]
		}
	}
	return max
}
