// Gauge semantics under the simulator's pooled-event hot path: sim.Post
// recycles Event records, so the same Event object carries many different
// gauge updates over a run. The high-water mark must track the true peak
// across recycles, and the combined Post+Set path must stay allocation-free
// once the pool is warm. External test package: metrics must not depend on
// sim, but the test may.
package metrics_test

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestGaugeMaxUnderPooledEvents(t *testing.T) {
	s := sim.New(1)
	r := metrics.New(s.Now)
	g := r.Gauge("tcp", "cwnd_bytes")

	// A rise-fall-rise profile delivered through pooled events: the peak
	// sits in the middle, so a max that tracked only the final value (or
	// was reset when an Event was recycled) would miss it.
	peak := func() int64 {
		sm := r.Snapshot().Find("cwnd_bytes")
		if len(sm) != 1 {
			t.Fatalf("snapshot holds %+v, want the one gauge", sm)
		}
		return sm[0].Max
	}
	profile := []int64{10, 400, 250, 9000, 120, 5, 800}
	for i, v := range profile {
		v := v
		s.Post(time.Duration(i)*time.Millisecond, func() { g.Set(v) })
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := peak(); got != 9000 {
		t.Errorf("gauge max = %d after pooled-event profile, want 9000", got)
	}
	if got := g.Value(); got != 800 {
		t.Errorf("Gauge.Value = %d, want 800 (last pooled update)", got)
	}

	// Add must move the high-water mark too.
	g.Add(8300) // 800 + 8300 = 9100 > 9000
	if got := peak(); got != 9100 {
		t.Errorf("gauge max = %d after Add past the old peak, want 9100", got)
	}

	// Steady state: one pooled Post + fire + Set per step allocates
	// nothing (the event comes from the simulator's free list).
	update := func() { g.Set(7) }
	s.Post(0, update)
	s.Step() // warm the pool
	if n := testing.AllocsPerRun(1000, func() {
		s.Post(0, update)
		if !s.Step() {
			t.Fatal("pooled event did not fire")
		}
	}); n != 0 {
		t.Errorf("pooled Post+Set allocated %.1f times per run, want 0", n)
	}
}
