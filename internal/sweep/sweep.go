// Package sweep fans independent experiment runs across a worker pool.
//
// It is the single audited place where sim-driven code crosses a
// goroutine boundary (the simdeterminism analyzer carves it out by
// import-path suffix). The contract that makes the parallelism safe and
// deterministic:
//
//   - Each job owns one sealed simulation world: every *sim.Simulator,
//     stack, and random stream a job touches is constructed inside the
//     job from its seed, and nothing escapes except the returned value.
//   - Results are merged by input position, never by completion order,
//     so Run is byte-identical under any GOMAXPROCS, one included.
//   - Errors are joined in seed order for the same reason.
//
// Jobs must not share mutable state; anything a job reads besides its
// seed must be immutable for the duration of the sweep.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Seeds returns n consecutive seeds starting at base — the conventional
// shape of a sweep's input, kept explicit so result files record exactly
// which seeds produced them.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Run executes job(seed) for every seed on a pool of runtime.GOMAXPROCS(0)
// goroutines (at most one per seed; a pool of one is a serial loop) and
// returns the results indexed by seed position.
//
// All workers are joined before Run returns: no job outlives the call.
// If any jobs fail, Run still completes the rest and returns the
// failures joined in seed order; results at failed positions are the
// zero value of T.
func Run[T any](seeds []int64, job func(seed int64) (T, error)) ([]T, error) {
	results := make([]T, len(seeds))
	errs := make([]error, len(seeds))
	workers := min(runtime.GOMAXPROCS(0), len(seeds))
	if workers <= 1 {
		for i, seed := range seeds {
			results[i], errs[i] = job(seed)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					results[i], errs[i] = job(seeds[i])
				}
			}()
		}
		for i := range seeds {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("seed %d: %w", seeds[i], err))
		}
	}
	return results, errors.Join(failed...)
}
