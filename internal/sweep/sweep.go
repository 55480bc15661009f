// Package sweep runs independent experiment jobs on a pool of workers.
//
// It is the single audited place where sim-driven code crosses a
// goroutine boundary (the simdeterminism analyzer carves it out by
// import-path suffix). The contract that makes the parallelism safe and
// deterministic:
//
//   - Each job owns one sealed simulation world: every *sim.Simulator,
//     stack, and random stream a job touches is constructed inside the
//     job from its input, and nothing escapes except the returned value.
//   - Results reach the caller in input order, on the caller's goroutine,
//     never in completion order, so what the caller makes of them is
//     byte-identical under any GOMAXPROCS, one included.
//
// Jobs must not share mutable state; anything a job reads besides its
// input must be immutable while the pool runs.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Lookahead is how many inputs the pool holds at once, taken but not yet
// handed back: four per worker, so a slow job does not idle the others,
// and at most this many jobs run past the one a caller stops at.
func Lookahead() int { return 4 * runtime.GOMAXPROCS(0) }

// Ordered runs job on each input next hands out, in the order next hands
// them out, on a pool of runtime.GOMAXPROCS(0) workers, and gives each
// input with its result to yield, in input order, on the caller's
// goroutine. next is called on the caller's goroutine too, so yield may
// give it more inputs: false from next means none for now, and Ordered
// returns once next has none and every input taken has been yielded.
// yield returning false stops the pool: no input is taken after it, and
// the results of jobs that ran past it are dropped. Every worker is
// joined before Ordered returns.
func Ordered[In, Out any](next func() (In, bool), job func(In) Out, yield func(In, Out) bool) {
	type task struct {
		in  In
		out chan Out // buffered: a worker never waits for the reader
	}
	ahead := Lookahead()
	todo := make(chan task, ahead) // holds every task out, so taking one never blocks
	var (
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	defer func() {
		stopped.Store(true)
		close(todo)
		wg.Wait()
	}()
	var out []task // taken and not yet yielded, in input order
	for workers := 0; ; {
		for len(out) < ahead {
			in, ok := next()
			if !ok {
				break
			}
			t := task{in, make(chan Out, 1)}
			todo <- t
			out = append(out, t)
			if workers < runtime.GOMAXPROCS(0) {
				workers++
				wg.Add(1)
				go func() {
					defer wg.Done()
					for t := range todo {
						if !stopped.Load() {
							t.out <- job(t.in)
						}
					}
				}()
			}
		}
		if len(out) == 0 {
			return
		}
		t := out[0]
		out = out[1:]
		if !yield(t.in, <-t.out) {
			return
		}
	}
}

// Run runs job(0), …, job(n-1) on the pool and returns once every one has
// run; job i writes its result to the caller's index i.
func Run(n int, job func(i int)) {
	i := 0
	Ordered(func() (int, bool) {
		i++
		return i - 1, i <= n
	}, func(i int) bool {
		job(i)
		return true
	}, func(int, bool) bool { return true })
}
