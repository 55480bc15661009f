package sweep

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
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

// withProcs runs f under runtime.GOMAXPROCS(n), the sweep's pool size,
// and restores the setting afterwards.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestParallelMatchesSerial is the sweep contract: for the same seeds,
// any pool size produces byte-identical results in seed order.
func TestParallelMatchesSerial(t *testing.T) {
	sweep := func() []string {
		out := make([]string, 16)
		Run(len(out), func(i int) {
			var err error
			if out[i], err = simTrace(42 + int64(i)); err != nil {
				t.Error(err)
			}
		})
		return out
	}
	var serial []string
	withProcs(1, func() { serial = sweep() })
	for _, procs := range []int{2, 4, 16, 64} {
		var par []string
		withProcs(procs, func() { par = sweep() })
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("GOMAXPROCS=%d diverged from serial:\n par=%v\nser=%v", procs, par, serial)
		}
	}
}

func TestRunEmptySeeds(t *testing.T) {
	Run(0, func(i int) { t.Errorf("job %d of an empty sweep ran", i) })
}

// upTo is a source of the inputs 0..n-1.
func upTo(n int) func() (int, bool) {
	i := 0
	return func() (int, bool) {
		if i == n {
			return 0, false
		}
		i++
		return i - 1, true
	}
}

// TestFirstFailureInInputOrderWins: a reader that stops at its first
// failure stops at the first in input order, even when a later job
// finished failing first.
func TestFirstFailureInInputOrderWins(t *testing.T) {
	sevenFailed := make(chan struct{})
	var read []int
	withProcs(4, func() {
		Ordered(upTo(100), func(i int) bool {
			switch i {
			case 5:
				<-sevenFailed
				return false
			case 7:
				close(sevenFailed)
				return false
			}
			return true
		}, func(i int, ok bool) bool {
			read = append(read, i)
			return ok
		})
	})
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(read, want) {
		t.Errorf("read %v, want %v", read, want)
	}
}

// TestStopRunsAtMostLookaheadPast: after the reader stops, no more than
// Lookahead-1 jobs have run past the one it stopped at, and no result of
// theirs is read; a campaign of 10,000 stopped at its tenth job does not
// run the rest.
func TestStopRunsAtMostLookaheadPast(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		var ran atomic.Int64
		reads := 0
		withProcs(procs, func() {
			Ordered(upTo(10_000), func(i int) int {
				ran.Add(1)
				return i
			}, func(i, out int) bool {
				reads++
				return i < 10
			})
			if n, bound := ran.Load(), int64(10+Lookahead()); n > bound || reads != 11 {
				t.Errorf("GOMAXPROCS=%d: %d jobs ran and %d were read after a stop at job 10; want at most %d and 11", procs, n, reads, bound)
			}
		})
	}
}

// TestGrowingSourceDrainsFIFO: inputs the reader adds while the pool runs
// are taken in the order they were added. Input n adds 2n+1 and 2n+2, so a
// FIFO reads 0, 1, 2, … in order, on any pool size.
func TestGrowingSourceDrainsFIFO(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		var read []int
		withProcs(procs, func() {
			queue := []int{0}
			Ordered(func() (int, bool) {
				if len(queue) == 0 {
					return 0, false
				}
				n := queue[0]
				queue = queue[1:]
				return n, true
			}, func(n int) int { return n * n }, func(n, sq int) bool {
				if sq != n*n {
					t.Errorf("input %d came back with %d", n, sq)
				}
				read = append(read, n)
				for _, c := range []int{2*n + 1, 2*n + 2} {
					if c < 500 {
						queue = append(queue, c)
					}
				}
				return true
			})
		})
		for i, n := range read {
			if n != i {
				t.Fatalf("GOMAXPROCS=%d: input %d read at position %d", procs, n, i)
			}
		}
		if len(read) != 500 {
			t.Errorf("GOMAXPROCS=%d: read %d inputs, want 500", procs, len(read))
		}
	}
}

// TestNoGoroutineOutlivesTheCall: when Ordered returns, whether drained or
// stopped, no job is running and every worker it started has exited.
func TestNoGoroutineOutlivesTheCall(t *testing.T) {
	before := runtime.NumGoroutine()
	var running atomic.Int64
	job := func(i int) int {
		running.Add(1)
		defer running.Add(-1)
		time.Sleep(time.Millisecond)
		return i
	}
	withProcs(8, func() {
		Ordered(upTo(200), job, func(int, int) bool { return true })
		if n := running.Load(); n != 0 {
			t.Errorf("%d jobs still running after a drained pool returned", n)
		}
		Ordered(upTo(200), job, func(i, _ int) bool { return i < 3 })
		if n := running.Load(); n != 0 {
			t.Errorf("%d jobs still running after a stopped pool returned", n)
		}
	})
	// A joined worker has called Done but may not have unwound yet.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the pools, %d after", before, runtime.NumGoroutine())
		}
	}
}
