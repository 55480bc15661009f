package metrics

import (
	"fmt"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucketing convention: an
// observation exactly on a bound lands in that bound's bucket (d <= b),
// one nanosecond above it lands in the next, and anything past the last
// bound lands in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, time.Second}
	r := New(nil)

	// Fresh histogram per bound, so each pair of observations is judged in
	// isolation — the +1ns case for bound i would otherwise collide with
	// the exactly-on-bound case for bound i+1.
	for i, b := range bounds {
		h := r.Histogram("t", fmt.Sprintf("h%d", i), bounds)
		h.Observe(b) // exactly on the bound
		if got := h.BucketCount(i); got != 1 {
			t.Errorf("observation exactly on bound %v: bucket %d count = %d, want 1", b, i, got)
		}
		h.Observe(b + time.Nanosecond) // just above
		if got := h.BucketCount(i + 1); got != 1 {
			t.Errorf("observation at bound %v + 1ns: bucket %d count = %d, want 1", b, i+1, got)
		}
		if h.Count() != 2 {
			t.Errorf("bound %v: total count = %d, want 2", b, h.Count())
		}
	}
	// Past the last bound everything lands in overflow; the last loop
	// iteration already put last-bound+1ns there.
	h := r.Histogram("t", fmt.Sprintf("h%d", len(bounds)-1), bounds)
	h.Observe(time.Hour)
	if got := h.BucketCount(h.NumBounds()); got != 2 {
		t.Errorf("overflow bucket count = %d, want 2 (last-bound+1ns and 1h)", got)
	}

	// Zero and negative durations fall in the first bucket — they are
	// <= every bound.
	h2 := r.Histogram("t", "h2", bounds)
	h2.Observe(0)
	h2.Observe(-time.Second)
	if got := h2.BucketCount(0); got != 2 {
		t.Errorf("zero/negative observations: bucket 0 count = %d, want 2", got)
	}
	if h2.min != -time.Second {
		t.Errorf("min = %v, want -1s", h2.min)
	}
}

// TestHistogramAccessorsNilSafe mirrors the package's nil-instrument
// contract for the read accessors the telemetry sampler uses.
func TestHistogramAccessorsNilSafe(t *testing.T) {
	var h *Histogram
	if h.NumBounds() != 0 || h.Bound(0) != 0 || h.BucketCount(0) != 0 || h.Max() != 0 {
		t.Fatal("nil histogram accessors must all return 0")
	}
	r := New(nil)
	live := r.Histogram("t", "h", []time.Duration{time.Millisecond})
	if live.Bound(-1) != 0 || live.Bound(7) != 0 || live.BucketCount(-1) != 0 || live.BucketCount(7) != 0 {
		t.Fatal("out-of-range accessors must return 0")
	}
}
