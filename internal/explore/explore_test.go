package explore

import (
	"reflect"
	"testing"
	"time"
)

// smallWindow is a configuration whose interleaving space closes in
// about a second of wall clock: one connection, one crash kind, a 4 ms
// fault window, and a 10 ms forking grace.
func smallWindow() Config {
	return Config{
		Seed:           7,
		FaultSpan:      4 * time.Millisecond,
		Grace:          10 * time.Millisecond,
		MaxFaultPoints: 2,
	}
}

// TestExploreClosesSmallWindow is the tentpole acceptance: a bounded
// 1-connection takeover window fully closes — the frontier drains with
// zero truncations — and every interleaving satisfies every invariant.
func TestExploreClosesSmallWindow(t *testing.T) {
	res, err := Explore(smallWindow())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(res.Violations) != 0 {
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
// Workers changes the replay parallelism and must not change any of it.
func TestExploreDeterministic(t *testing.T) {
	a, err := Explore(smallWindow())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Explore(smallWindow())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	serial := smallWindow()
	serial.Workers = 1
	c, err := Explore(serial)
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

// TestExploreStop verifies the wall-clock escape hatch: a Stop that trips
// immediately abandons the frontier and reports the window as not closed.
func TestExploreStop(t *testing.T) {
	cfg := smallWindow()
	cfg.Stop = func() bool { return true }
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.FullyClosed {
		t.Fatalf("stopped exploration still claimed closure: %+v", res)
	}
	if res.Frontier == 0 {
		t.Errorf("stopped exploration reports an empty frontier; the abandonment is invisible")
	}
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
