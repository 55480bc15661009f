package explore

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// smallWindow is a configuration whose interleaving space closes in
// well under a second of wall clock: the default exploration narrowed to
// a 4 ms fault window with two boundaries and a 10 ms forking grace.
func smallWindow() Config {
	cfg := DefaultConfig()
	cfg.Seed, cfg.FaultSpan, cfg.Grace, cfg.MaxFaultPoints = 7, 4*time.Millisecond, 10*time.Millisecond, 2
	return cfg
}

// TestExploreClosesSmallWindow is the tentpole acceptance: a bounded
// 1-connection takeover window fully closes — the frontier drains with
// zero truncations — and every interleaving satisfies every invariant.
func TestExploreClosesSmallWindow(t *testing.T) {
	res, err := Explore(smallWindow())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violations in a correct system:\n%s", res.Report())
	}
	if !res.FullyClosed || res.Frontier != 0 || res.Truncated != 0 {
		t.Fatalf("window did not close: closed=%v frontier=%d truncated=%d",
			res.FullyClosed, res.Frontier, res.Truncated)
	}
	if res.Interleavings < 10 {
		t.Errorf("only %d interleavings explored; the tie axis is not being forked", res.Interleavings)
	}
	if res.FaultPoints != 2 || len(res.Boundaries) != 2 {
		t.Errorf("fault axis: %d points over boundaries %v, want 2 over 2", res.FaultPoints, res.Boundaries)
	}
	if res.Deduped == 0 {
		t.Errorf("dedup never fired across %d interleavings; closure should lean on it", res.Interleavings)
	}
}

// TestExploreDeterministic reruns the same exploration and demands the
// identical result — counters, boundaries, closure verdict, everything.
// A serial replay pool (GOMAXPROCS 1, a batch of four) must not change
// any of it.
func TestExploreDeterministic(t *testing.T) {
	a, err := Explore(smallWindow())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Explore(smallWindow())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	prev := runtime.GOMAXPROCS(1)
	c, err := Explore(smallWindow())
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical configs diverged:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a, c) {
		t.Errorf("worker count changed the result:\n%+v\n%+v", a, c)
	}
}

// TestExploreStop verifies the one budget that can cut an exploration
// short: MaxRuns abandons the frontier, reports what is left of it, and
// never claims closure — on every machine after the same run.
func TestExploreStop(t *testing.T) {
	cfg := smallWindow()
	cfg.MaxRuns = 5
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.FullyClosed {
		t.Fatalf("stopped exploration still claimed closure: %+v", res)
	}
	if res.Interleavings != cfg.MaxRuns {
		t.Errorf("executed %d interleavings, want the budget of %d", res.Interleavings, cfg.MaxRuns)
	}
	if res.Frontier == 0 {
		t.Errorf("stopped exploration reports an empty frontier; the abandonment is invisible")
	}
}

// TestApproximationsAgreeWithTheSlowWay holds fingerprint dedup to its
// reference: on a window small enough to close both ways, switching it off
// (what -no-dedup does) must reach the same verdict over at least as many
// interleavings.
func TestApproximationsAgreeWithTheSlowWay(t *testing.T) {
	fast := smallWindow()
	fast.Grace, fast.MaxFaultPoints = 2*time.Millisecond, 1
	slow := fast
	slow.NoDedup = true
	a, err := Explore(fast)
	if err != nil {
		t.Fatalf("with dedup: %v", err)
	}
	b, err := Explore(slow)
	if err != nil {
		t.Fatalf("without it: %v", err)
	}
	for _, r := range []*Result{a, b} {
		if !r.FullyClosed || r.Violation != nil {
			t.Errorf("window did not close clean:\n%s", r.Report())
		}
	}
	if b.Deduped != 0 {
		t.Errorf("the slow way still deduped %d", b.Deduped)
	}
	if a.Deduped == 0 {
		t.Errorf("dedup never fired over %d interleavings; the comparison proves nothing", a.Interleavings)
	}
	if b.Interleavings < a.Interleavings {
		t.Errorf("the slow way explored %d interleavings, fewer than the deduplicated %d", b.Interleavings, a.Interleavings)
	}
	t.Logf("deduplicated %d interleavings, exhaustive %d", a.Interleavings, b.Interleavings)
}

// TestStride pins the boundary-thinning helper: endpoints survive, order
// is preserved, and the cap is exact.
func TestStride(t *testing.T) {
	cases := []struct {
		in   []int64
		max  int
		want []int64
	}{
		{nil, 4, nil},
		{[]int64{5}, 4, []int64{5}},
		{[]int64{1, 2, 3}, 4, []int64{1, 2, 3}},
		{[]int64{1, 2, 3, 4, 5, 6}, 2, []int64{1, 6}},
		{[]int64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, []int64{1, 5, 9}},
	}
	for _, c := range cases {
		if got := stride(c.in, c.max); !reflect.DeepEqual(got, c.want) {
			t.Errorf("stride(%v, %d) = %v, want %v", c.in, c.max, got, c.want)
		}
	}
}
