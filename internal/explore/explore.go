package explore

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The explored workload is one echo client of echoRounds rounds of
// echoMsgSize bytes: long enough that the client is mid-workload through
// the whole takeover.
const (
	echoRounds  = 300
	echoMsgSize = 512
)

// Config bounds one exploration; DefaultConfig is what `sttcp explore`
// runs without flags. Every field means what it says, zero included: a
// zero-length window places no fault, a zero grace forks only inside the
// fault window, and zero fault points means every boundary. Every knob
// exists so tests and the CLI can trade coverage for wall-clock. An
// exploration stops at its first violation.
type Config struct {
	// Seed drives the testbed simulation of every run.
	Seed int64

	// FaultKinds lists the fault templates to place at each enumerated
	// boundary, each a kind and the host or role it strikes; a template's
	// At is the boundary's. A template carries whatever parameters it was
	// given, so a windowed kind needs its duration: the testbed's fault
	// validator refuses one without, and the run records the skip.
	FaultKinds []experiment.Fault
	// FaultAt and FaultSpan bound the fault-placement window
	// [FaultAt, FaultAt+FaultSpan): a probe run collects the distinct
	// event times inside it and each becomes a candidate injection point.
	FaultAt   time.Duration
	FaultSpan time.Duration
	// MaxFaultPoints caps the boundary enumeration by even striding (0:
	// every boundary). Capping is reported, not silent: Result.Boundaries
	// holds what was actually used.
	MaxFaultPoints int

	// Grace extends tie-break forking past the fault window so the
	// takeover itself is explored: choices are forked in
	// [FaultAt, FaultAt+FaultSpan+Grace).
	Grace time.Duration

	// MaxPrefix caps the choice-prefix length; deeper branch points are
	// counted as truncations and void the closure claim rather than
	// silently narrowing it.
	MaxPrefix int
	// MaxRuns caps total run executions.
	MaxRuns int

	// NoDedup disables fingerprint dedup — the switch that re-verifies a
	// closure claim without the engineered approximation.
	NoDedup bool

	// ShrinkBudget bounds the re-runs spent minimising each violation
	// (shared between plan and prefix shrinking; 0 shrinks nothing).
	ShrinkBudget int
}

// DefaultConfig explores a single-connection echo workload around one
// serving-side crash: faults at up to six boundaries of the 30 ms from
// 300 ms on (the paper's connection-established, transfer-in-flight
// regime), forking for a 1.4 s grace past them (the takeover-latency
// invariant bound, HB timeout + period + 600 ms), at most 64 choices
// deep and 2,000 runs, and 25 re-runs to shrink a violation.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		FaultKinds:     []experiment.Fault{{Kind: experiment.FaultCrash, Host: "serving"}},
		FaultAt:        300 * time.Millisecond,
		FaultSpan:      30 * time.Millisecond,
		MaxFaultPoints: 6,
		Grace:          1400 * time.Millisecond,
		MaxPrefix:      64,
		MaxRuns:        2000,
		ShrinkBudget:   25,
	}
}

// ViolationRun is one interleaving that broke an invariant, with its
// minimised reproduction.
type ViolationRun struct {
	// Plan and Prefix are the violating run as first found.
	Plan   experiment.Plan
	Prefix []int
	// ShrunkPlan and MinPrefix are the minimised reproduction: greedy
	// fault removal with the prefix pinned (experiment.Shrink), then
	// greedy trailing-prefix truncation on the shrunk plan. Both are
	// deterministic.
	ShrunkPlan experiment.Plan
	MinPrefix  []int
	// Result is the minimal failing run replayed with trace detail, so
	// Report() renders its full timeline.
	Result *chaos.RunResult
	// ShrinkRuns is how many re-executions the minimisation spent.
	ShrinkRuns int
}

// Result is one exploration's outcome.
type Result struct {
	// Base is the fault-free plan the probe ran.
	Base experiment.Plan
	// Boundaries are the fault points actually enumerated (post-stride).
	Boundaries []time.Duration

	// Interleavings counts distinct executed runs (probe included,
	// shrink re-runs excluded). FaultPoints is |Boundaries|×|FaultKinds|.
	Interleavings int
	FaultPoints   int
	// ChoicePoints totals the in-window multi-way tie groups observed
	// across all runs; Deduped counts runs whose outcome fingerprint was
	// already known, Truncated counts branch points beyond MaxPrefix.
	ChoicePoints int
	Deduped      int
	Truncated    int

	// Frontier is the number of unexplored (plan, prefix) candidates
	// left when the exploration stopped; FullyClosed reports that the
	// frontier drained with zero truncations and inside MaxRuns — the
	// bounded window's interleaving space is exhausted.
	Frontier    int
	FullyClosed bool

	Violations []ViolationRun
}

// job is one frontier entry: a plan plus the choice prefix to force.
type job struct {
	p      experiment.Plan
	prefix []int
}

// runOut is one executed run with the wrapper's recordings.
type runOut struct {
	res        *chaos.RunResult
	choices    []Choice
	boundaries []int64
}

type explorer struct {
	cfg Config
	// inner builds the queue each run's forking wrapper decorates: the
	// heap, except where the in-package tests substitute a deliberately
	// buggy one.
	inner    func() sim.Scheduler
	winLo    int64 // fault window start, ns
	winHi    int64 // fault window end, ns
	choiceHi int64 // forking window end (winHi + grace), ns
	seen     map[uint64]bool
}

func newExplorer(cfg Config, inner func() sim.Scheduler) *explorer {
	return &explorer{
		cfg:      cfg,
		inner:    inner,
		winLo:    cfg.FaultAt.Nanoseconds(),
		winHi:    (cfg.FaultAt + cfg.FaultSpan).Nanoseconds(),
		choiceHi: (cfg.FaultAt + cfg.FaultSpan + cfg.Grace).Nanoseconds(),
		seen:     make(map[uint64]bool),
	}
}

// Explore runs the systematic exploration and returns its results. The
// whole exploration is deterministic in Config: the same
// inputs enumerate the same interleavings in the same order.
func Explore(cfg Config) (*Result, error) { return explore(cfg, heapQueue) }

func explore(cfg Config, inner func() sim.Scheduler) (*Result, error) {
	e := newExplorer(cfg, inner)
	base := basePlan(cfg.Seed)
	res := &Result{Base: base}

	// Probe: the fault-free run that discovers the event boundaries
	// inside the fault window. Its tie-breaks follow canonical order; the
	// fault axis, not the probe, is what gets forked.
	probe, err := e.execute(base, nil, false)
	if err != nil {
		return nil, err
	}
	res.Interleavings++
	res.ChoicePoints += len(probe.choices)
	if probe.res.Failed() {
		// The baseline itself violates — the golden seeded-bug test's
		// path. Minimise and report; there is no fault axis to explore.
		if err := e.recordViolation(res, base, nil); err != nil {
			return nil, err
		}
		return res, nil
	}

	bounds := stride(probe.boundaries, cfg.MaxFaultPoints)
	for _, b := range bounds {
		res.Boundaries = append(res.Boundaries, time.Duration(b))
	}
	res.FaultPoints = len(bounds) * len(cfg.FaultKinds)

	var frontier []job
	for _, f := range cfg.FaultKinds {
		for _, b := range bounds {
			p := base
			f.At = time.Duration(b)
			p.Faults = []experiment.Fault{f}
			frontier = append(frontier, job{p: p})
		}
	}

	for len(frontier) > 0 {
		n := batchSize()
		if room := cfg.MaxRuns - res.Interleavings; room < n {
			n = room
		}
		if n <= 0 {
			res.Frontier = len(frontier)
			return res, nil
		}
		if n > len(frontier) {
			n = len(frontier)
		}
		batch := frontier[:n]
		frontier = frontier[n:]

		outs, err := sweep.Run(sweep.Seeds(0, len(batch)), func(i int64) (*runOut, error) {
			j := batch[int(i)]
			return e.execute(j.p, j.prefix, false)
		})
		if err != nil {
			return nil, err
		}
		for i, out := range outs {
			j := batch[i]
			res.Interleavings++
			res.ChoicePoints += len(out.choices)

			if out.res.Failed() {
				if err := e.recordViolation(res, j.p, j.prefix); err != nil {
					return nil, err
				}
				res.Frontier = len(frontier) + len(outs) - i - 1
				return res, nil
			}
			if !cfg.NoDedup {
				fp := fingerprint(j.p, out.res, out.choices)
				if e.seen[fp] {
					res.Deduped++
					continue
				}
				e.seen[fp] = true
			}
			frontier = append(frontier, e.extend(res, j, out)...)
		}
	}
	res.FullyClosed = res.Truncated == 0 && len(res.Violations) == 0
	return res, nil
}

// extend enumerates the untaken alternatives of one passing run: for
// every in-window multi-way tie group at or past the forced prefix, each
// alternative index becomes a new frontier entry whose prefix replays
// the run's actual picks up to that group and then diverges.
func (e *explorer) extend(res *Result, j job, out *runOut) []job {
	var next []job
	for ci := len(j.prefix); ci < len(out.choices); ci++ {
		c := out.choices[ci]
		if ci+1 > e.cfg.MaxPrefix {
			res.Truncated++
			continue
		}
		for alt := 0; alt < c.N; alt++ {
			if alt == c.Picked {
				continue
			}
			prefix := make([]int, ci+1)
			for k := 0; k < ci; k++ {
				prefix[k] = out.choices[k].Picked
			}
			prefix[ci] = alt
			next = append(next, job{p: j.p, prefix: prefix})
		}
	}
	return next
}

// recordViolation minimises and records one violating run: the plan
// shrinks by greedy fault removal with the choice prefix pinned in the
// rerun closure (experiment.Shrink), then the prefix shrinks by greedy
// trailing truncation on the minimal plan. Both phases share ShrinkBudget
// and run without trace detail, like the exploration; the minimal
// reproduction then runs once more with detail, and that replay is the
// reported Result. Detail schedules no events, so the replay takes the
// same tie groups and must violate again; if it does not, the exploration
// errs rather than report a passing run.
func (e *explorer) recordViolation(res *Result, p experiment.Plan, prefix []int) error {
	vr := ViolationRun{Plan: p, Prefix: append([]int{}, prefix...)}
	shrunk, runs, err := experiment.Shrink(p, e.cfg.ShrinkBudget, func(cand experiment.Plan) (bool, error) {
		o, err := e.execute(cand, prefix, false)
		return err == nil && o.res.Failed(), err
	})
	if err != nil {
		return err
	}
	vr.ShrunkPlan, vr.ShrinkRuns = shrunk, runs

	minPrefix := append([]int{}, prefix...)
	for len(minPrefix) > 0 && vr.ShrinkRuns < e.cfg.ShrinkBudget {
		cand := minPrefix[:len(minPrefix)-1]
		o, err := e.execute(shrunk, cand, false)
		if err != nil {
			return err
		}
		vr.ShrinkRuns++
		if !o.res.Failed() {
			break
		}
		minPrefix = cand
	}
	vr.MinPrefix = minPrefix

	replay, err := e.execute(shrunk, minPrefix, true)
	if err != nil {
		return err
	}
	if !replay.res.Failed() {
		return fmt.Errorf("explore: the minimal reproduction (%s, prefix %v) passed when replayed with trace detail",
			chaos.Describe(shrunk), minPrefix)
	}
	vr.Result = replay.res
	res.Violations = append(res.Violations, vr)
	return nil
}

// execute runs one (plan, prefix) candidate on a fresh testbed with
// the forking wrapper injected, and returns the result plus the
// wrapper's recorded choices and boundaries. detail turns on the trace's
// per-segment events: only a violation's report reads them.
func (e *explorer) execute(p experiment.Plan, prefix []int, detail bool) (*runOut, error) {
	var sched *Scheduler
	res, err := chaos.Run(p, experiment.Options{
		TraceDetail: detail,
		CustomScheduler: func() sim.Scheduler {
			sched = NewScheduler(e.inner(), prefix)
			sched.ForkWindow(e.winLo, e.choiceHi)
			sched.RecordBoundaries(e.winLo, e.winHi)
			return sched
		},
	})
	if err != nil {
		return nil, err
	}
	// The wrapper doubles as a runtime checker of the inner queue's
	// (when, seq) total-order contract; a breach joins the run's
	// violations as the explorer-specific scheduler-order invariant.
	for _, msg := range sched.OrderViolations() {
		res.Violations = append(res.Violations, experiment.Violation{Invariant: "scheduler-order", Detail: msg})
	}
	return &runOut{res: res, choices: sched.Choices(), boundaries: sched.Boundaries()}, nil
}

// basePlan is the fault-free single-connection plan the exploration is
// anchored on.
func basePlan(seed int64) experiment.Plan {
	p := experiment.Plan{
		Clients: []experiment.Workload{{Echo: true, Rounds: echoRounds, MsgSize: echoMsgSize, Gap: 3 * time.Millisecond}},
		Horizon: 30 * time.Second,
	}
	p.Seed = seed
	return p
}

// batchSize is how many frontier entries one sweep batch executes: a few
// per sweep worker keeps the pool busy without letting the in-flight set
// race far ahead of violation/budget cutoffs. The frontier is FIFO and a
// batch merges in input order, so the explored set and every counter are
// the same for any GOMAXPROCS.
func batchSize() int {
	return runtime.GOMAXPROCS(0) * 4
}

// stride evenly thins bounds down to max entries, keeping both
// endpoints. The cap is visible to callers via Result.Boundaries.
func stride(bounds []int64, max int) []int64 {
	if max <= 0 || len(bounds) <= max {
		return bounds
	}
	if max == 1 {
		return bounds[:1]
	}
	out := make([]int64, 0, max)
	for i := 0; i < max; i++ {
		b := bounds[i*(len(bounds)-1)/(max-1)]
		if len(out) == 0 || out[len(out)-1] != b {
			out = append(out, b)
		}
	}
	return out
}

// fingerprint hashes a run's observable outcome: the plan's signature,
// the full metrics snapshot, every client summary, violations, skips,
// and an order-insensitive digest of the in-window tie groups. Two runs
// with equal fingerprints behaved identically everywhere the system's
// observability can see, so the second one's alternatives are assumed
// covered by the first's — the dedup Config.NoDedup disables.
func fingerprint(p experiment.Plan, res *chaos.RunResult, inWin []Choice) uint64 {
	h := fnv.New64a()
	io.WriteString(h, chaos.Signature(p))
	if res.Metrics != nil {
		io.WriteString(h, "\x00")
		_ = res.Metrics.WriteJSON(h) // an fnv hash never fails a write
	}
	for _, c := range res.Clients {
		fmt.Fprintf(h, "\x00c:%s|%v|%s|%s", c.Name, c.Done, c.Err, c.Progress)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(h, "\x00v:%s", v)
	}
	for _, s := range res.Skipped {
		fmt.Fprintf(h, "\x00s:%s", s)
	}
	var sum uint64
	for _, c := range inWin {
		g := fnv.New64a()
		fmt.Fprintf(g, "%d/%d", c.WhenNS, c.N)
		sum += g.Sum64()
	}
	fmt.Fprintf(h, "\x00m:%d", sum)
	return h.Sum64()
}

// Report renders the exploration outcome for humans: the counters, the
// closure verdict, and each violation's minimal reproduction with its
// timeline.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d interleavings across %d fault points (%d boundaries)\n",
		r.Interleavings, r.FaultPoints, len(r.Boundaries))
	fmt.Fprintf(&b, "choice points %d, deduped %d, truncated %d, frontier %d\n",
		r.ChoicePoints, r.Deduped, r.Truncated, r.Frontier)
	if r.FullyClosed {
		b.WriteString("window FULLY CLOSED: every interleaving explored, all invariants held\n")
	} else if len(r.Violations) == 0 {
		b.WriteString("window NOT closed (budget reached); no violations found\n")
	}
	for i := range r.Violations {
		v := &r.Violations[i]
		fmt.Fprintf(&b, "VIOLATION %d (shrunk in %d runs): prefix %v (from %v)\n",
			i+1, v.ShrinkRuns, v.MinPrefix, v.Prefix)
		b.WriteString(v.Result.Report())
	}
	return b.String()
}
