package metrics

import (
	"testing"
	"time"
)

// The instrument update paths run once per simulated segment: these tests
// hold them to zero allocations.

func TestCounterUpdatesDoNotAllocate(t *testing.T) {
	r := New(nil)
	c := r.Counter("t", "c")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
	}); n != 0 {
		t.Fatalf("Counter.Inc/Add allocated %.1f times per run, want 0", n)
	}
	var nilC *Counter
	if n := testing.AllocsPerRun(1000, func() { nilC.Inc(); nilC.Add(1) }); n != 0 {
		t.Fatalf("nil Counter updates allocated %.1f times per run, want 0", n)
	}
}

func TestGaugeUpdatesDoNotAllocate(t *testing.T) {
	r := New(nil)
	g := r.Gauge("t", "g")
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		v++
		g.Set(v)
		g.Add(-1)
	}); n != 0 {
		t.Fatalf("Gauge.Set/Add allocated %.1f times per run, want 0", n)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	r := New(nil)
	h := r.Histogram("t", "h", nil)
	d := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		d += 7 * time.Millisecond
		h.Observe(d % (12 * time.Second)) // exercise every bucket incl. overflow
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocated %.1f times per run, want 0", n)
	}
}
