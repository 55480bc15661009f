package main

import (
	"fmt"
	"runtime"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome, untraced (the end-to-end metrics) or
// traced (the per-layer metrics).
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples is how many measurements stand behind each metric; problems
	// lists every correctness and determinism failure.
	samples  map[string]int
	problems []string
}

func newResult(w workload, seed int64, trace int) *result {
	return &result{
		Workload: w.name, Seed: seed, Trace: trace,
		Metrics: map[string]metric{}, samples: map[string]int{},
	}
}

func (res *result) set(name string, value float64, unit string, n int) {
	res.Metrics[name] = metric{Value: value, Unit: unit}
	res.samples[name] = n
}

func (res *result) problem(format string, args ...any) {
	res.problems = append(res.problems, fmt.Sprintf(format, args...))
}

// count folds one operation's correctness outcome into the result.
func (res *result) count(what string, r *opResult) {
	if r.attempted < r.failed {
		r.attempted = r.failed
	}
	res.Attempted += r.attempted
	res.Failed += r.failed
	if r.failed > 0 {
		res.problem("%s: %s", what, r.failure)
	}
}

// setupHorizon is how much virtual time a set-up runs: long enough for ARP,
// the handshakes due by then, the first heartbeat and slow-start.
const setupHorizon = 100 * time.Millisecond

// setupRuns is how many times set-up is repeated; the figure is the fastest.
const setupRuns = 15

// budget decides how many operations a measurement loop runs: exactly reps
// when reps > 0, otherwise at least min and then as many more as fit in
// seconds of host time.
type budget struct {
	reps    int
	min     int
	seconds float64
}

// more reports whether operation number done (0-based) should start, given
// when the loop started and the host time its operations have taken so far.
func (b budget) more(done int, began time.Time, spent []float64) bool {
	if b.reps > 0 {
		return done < b.reps
	}
	if done < b.min {
		return true
	}
	elapsed := hostNow().Sub(began).Seconds()
	return elapsed+median(spent) <= b.seconds
}

// firstPass accumulates what the virtual-time figures are taken over: one
// execution of each of the workload's operations.
type firstPass struct {
	ops               int
	segments, payload int64
	fired             uint64
	virt              time.Duration
	latencies, stalls []float64 // µs, ms
}

func (fp *firstPass) add(r *opResult) {
	fp.ops++
	fp.segments += r.segments
	fp.fired += r.fired
	fp.payload += r.payload
	fp.virt += r.virt
	for _, d := range r.latencies() {
		fp.latencies = append(fp.latencies, float64(d.Nanoseconds())/1e3)
	}
	for _, d := range r.stalls() {
		fp.stalls = append(fp.stalls, float64(d.Nanoseconds())/1e6)
	}
}

// report sets the exact figures and releases the samples.
func (fp *firstPass) report(res *result, twinVirt time.Duration) {
	if fp.ops == 0 || fp.virt <= 0 || twinVirt <= 0 {
		return
	}
	res.set("events_per_segment", float64(fp.fired)/float64(fp.segments), "count", fp.ops)
	res.set("virt_goodput_mbps", float64(fp.payload)*8/fp.virt.Seconds()/1e6, "Mbit/s", fp.ops)
	res.set("virt_time_vs_tcp_ratio", fp.virt.Seconds()/float64(fp.ops)/twinVirt.Seconds(), "ratio", fp.ops)
	res.set("virt_latency_us_p50", percentile(fp.latencies, 50), "us", len(fp.latencies))
	res.set("virt_latency_us_p99", percentile(fp.latencies, 99), "us", len(fp.latencies))
	res.set("virt_stall_ms_p50", percentile(fp.stalls, 50), "ms", len(fp.stalls))
	res.set("virt_stall_ms_p90", percentile(fp.stalls, 90), "ms", len(fp.stalls))
	fp.latencies, fp.stalls = nil, nil
}

// measure runs one workload untraced and reports the end-to-end metrics.
// Host-time figures use every execution the budget allowed; virtual-time
// figures and the live heap come from the first pass alone, so they do not
// depend on how many operations the machine got through.
func measure(w workload, seed int64, seconds float64, reps int) *result {
	res := newResult(w, seed, 0)
	p := newPlan(w, seed)

	// A third of the set-ups run up front and the rest at even intervals of
	// the measuring loop below: the shared machine slows for seconds at a
	// time, and fifteen set-ups back to back sit inside one such spell or
	// outside it, where fifteen spread over the run straddle it.
	var setups []float64
	setupsTried := 0
	setUp := func(due int) {
		for ; setupsTried < due; setupsTried++ {
			r := p.run(0, variant{horizon: setupHorizon})
			if r.failed > 0 {
				res.count("set-up", r)
				continue
			}
			setups = append(setups, r.host.Seconds())
		}
	}
	upFront := setupRuns / 3
	if reps > 0 {
		upFront = setupRuns // no time budget to spread the rest over
	}
	setUp(upFront)

	// The plain-TCP twin is the virtual-time reference of Demo 3 and the
	// warm-up: it runs everything below ST-TCP at the workload's full size.
	twin := p.run(0, variant{plainTCP: true})
	res.count("plain-TCP twin", twin)
	twinVirt := twin.virt
	twin = nil

	passLen := w.ops
	if reps > 0 && reps < passLen {
		passLen = reps
	}
	// At least the first pass, and a second look at one operation so the
	// determinism gate has something to compare.
	b := budget{reps: reps, min: w.ops + 1, seconds: seconds}
	var (
		allocsPerSeg, bytesPerSeg []float64
		spent                     []float64
		prints                    = make([]string, w.ops)
		fastest                   = make([][]time.Duration, w.ops) // per operation and step, over its executions
		opSegments                = make([]int64, w.ops)
		pass                      firstPass
	)
	began := hostNow()
	for n := 0; b.more(n, began, spent); n++ {
		if reps == 0 && seconds > 0 {
			share := hostNow().Sub(began).Seconds() / seconds
			setUp(min(setupRuns, upFront+int(share*float64(setupRuns-upFront))))
		}
		op := n % w.ops
		r := p.run(op, variant{})
		spent = append(spent, r.host.Seconds())
		res.count(fmt.Sprintf("operation %d", op), r)
		if r.failed > 0 {
			continue // a failed operation never contributes a timing
		}
		segs := float64(r.segments)
		if len(fastest[op]) != len(r.steps) {
			fastest[op] = r.steps // first execution; a later mismatch fails the fingerprint below
		}
		for i, d := range r.steps {
			if d < fastest[op][i] {
				fastest[op][i] = d
			}
		}
		allocsPerSeg = append(allocsPerSeg, float64(r.mem.mallocs)/segs)
		bytesPerSeg = append(bytesPerSeg, float64(r.mem.bytes)/segs)

		fp := r.fingerprint()
		if prints[op] != "" {
			if prints[op] != fp {
				res.problem("operation %d is not deterministic: first %s, then %s", op, prints[op], fp)
			}
			continue
		}
		prints[op] = fp
		opSegments[op] = r.segments
		pass.add(r)
		if pass.ops == passLen {
			// The pass's own samples are the benchmark's, not the program's:
			// report drops them before the heap is read, with the pass's last
			// testbed still reachable.
			pass.report(res, twinVirt)
			res.set("heap_live_mb", heapLiveMB(), "MB", 1)
			runtime.KeepAlive(r)
		}
	}
	if pass.ops < passLen {
		res.problem("only %d of %d operations of the first pass succeeded", pass.ops, passLen)
	}

	// Host time on a shared machine is the code's own time plus whatever the
	// neighbours add, never less: each step of each operation is taken at its
	// fastest execution, an operation is the sum of its steps, and the figure
	// is the median over operations.
	var hostMS, nsPerSeg []float64
	for op, steps := range fastest {
		var d time.Duration
		for _, step := range steps {
			d += step
		}
		if d > 0 {
			hostMS = append(hostMS, float64(d.Nanoseconds())/1e6)
			nsPerSeg = append(nsPerSeg, float64(d.Nanoseconds())/float64(opSegments[op]))
		}
	}
	res.set("setup_s", fastestOf(setups), "s", len(setups))
	if n := len(allocsPerSeg); n > 0 {
		res.set("host_ns_per_segment", median(nsPerSeg), "ns", n)
		res.set("run_host_ms_p50", median(hostMS), "ms", n)
		res.set("allocs_per_segment", median(allocsPerSeg), "count", n)
		res.set("alloc_bytes_per_segment", median(bytesPerSeg), "B", n)
	}
	res.Correct = len(res.problems) == 0
	return res
}
