package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// simTrace is a job as production writes them — it builds its own sealed
// simulator from the seed — running a tiny simulation to a fixed horizon
// and returning a string that captures its event order and random draws:
// any nondeterminism in the sweep machinery would show up as a mismatch
// against the serial run.
func simTrace(seed int64) (string, error) {
	s := sim.New(seed)
	out := fmt.Sprintf("seed=%d", seed)
	r := s.Rand()
	for i := 0; i < 5; i++ {
		d := time.Duration(r.Int63n(int64(10 * time.Millisecond)))
		s.Schedule(d, func() {
			out += fmt.Sprintf(" %v", s.Now().UnixNano())
		})
	}
	if err := s.Run(time.Second); err != nil {
		return "", err
	}
	return out, nil
}

func TestSeeds(t *testing.T) {
	got := Seeds(100, 4)
	want := []int64{100, 101, 102, 103}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Seeds(100, 4) = %v, want %v", got, want)
	}
	if len(Seeds(1, 0)) != 0 {
		t.Fatal("Seeds(1, 0) should be empty")
	}
}

// withProcs runs f under runtime.GOMAXPROCS(n), the sweep's pool size,
// and restores the setting afterwards.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestParallelMatchesSerial is the sweep contract: for the same seed
// list, any pool size produces byte-identical results in seed order.
func TestParallelMatchesSerial(t *testing.T) {
	seeds := Seeds(42, 16)
	var serial []string
	var err error
	withProcs(1, func() { serial, err = Run(seeds, simTrace) })
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	for _, procs := range []int{2, 4, 16, 64} {
		var par []string
		withProcs(procs, func() { par, err = Run(seeds, simTrace) })
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("GOMAXPROCS=%d diverged from serial:\n par=%v\nser=%v", procs, par, serial)
		}
	}
}

// TestErrorsJoinedInSeedOrder: failures surface deterministically, in
// seed order, regardless of which worker hit them first.
func TestErrorsJoinedInSeedOrder(t *testing.T) {
	boom := errors.New("boom")
	seeds := Seeds(0, 10)
	var results []int
	var err error
	withProcs(4, func() {
		results, err = Run(seeds, func(seed int64) (int, error) {
			if seed%3 == 0 {
				return 0, boom
			}
			return int(seed * 2), nil
		})
	})
	if err == nil {
		t.Fatal("want joined error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("errors.Is lost the cause: %v", err)
	}
	want := "seed 0: boom\nseed 3: boom\nseed 6: boom\nseed 9: boom"
	if err.Error() != want {
		t.Fatalf("error order:\n got %q\nwant %q", err.Error(), want)
	}
	// Successful positions still carry their results.
	if results[1] != 2 || results[5] != 10 {
		t.Fatalf("successful results lost: %v", results)
	}
}

func TestRunEmptySeeds(t *testing.T) {
	results, err := Run(nil, func(seed int64) (int, error) { return 0, nil })
	if err != nil || len(results) != 0 {
		t.Fatalf("empty sweep: results=%v err=%v", results, err)
	}
}
