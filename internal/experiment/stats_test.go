package experiment

import (
	"testing"
	"time"
)

func TestComputeStats(t *testing.T) {
	s := computeStats([]time.Duration{100, 300, 200})
	if s.N != 3 || s.Min != 100 || s.Max != 300 || s.Mean != 200 {
		t.Fatalf("stats = %+v", s)
	}
	if z := computeStats(nil); z.N != 0 {
		t.Fatalf("empty stats = %+v", z)
	}
}

// TestDemo2SampledDistribution sweeps the crash phase across one heartbeat
// period: detection must vary (the phase matters) but stay inside the
// [timeout, timeout+period] band the protocol guarantees.
func TestDemo2SampledDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled sweep skipped in -short")
	}
	const period = 200 * time.Millisecond
	runs, err := runDemo2Sampled(Options{Seed: 5}, period, 8)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	dist := distribution(runs)
	// The liveness timeout counts from the last heartbeat *received*,
	// which is up to one period before the crash; so relative to the
	// crash, detection lands in [timeout−period, timeout] (plus checker
	// granularity of period/4).
	d := dist.Detection
	timeout := 3 * period
	if d.Min < timeout-period-period/4 {
		t.Fatalf("min detection %v below timeout−period", d.Min)
	}
	if d.Max > timeout+period/2 {
		t.Fatalf("max detection %v beyond the timeout band", d.Max)
	}
	if d.Max == d.Min {
		t.Fatalf("crash phase had no effect on detection (min=max=%v) — sweep broken", d.Min)
	}
	if dist.Failover.Min < d.Min {
		t.Fatalf("failover %v below detection %v", dist.Failover.Min, d.Min)
	}
	t.Logf("detection %v; failover %v", dist.Detection, dist.Failover)
}
