package explore

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiment"
	"repro/internal/sim"
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
	// Census folds the takeovers, non-FT transitions and guard skips of
	// the runs Interleavings counts.
	Census chaos.Census

	// Frontier is the number of unexplored (plan, prefix) candidates
	// left when the exploration stopped; FullyClosed reports that the
	// frontier drained with zero truncations and inside MaxRuns — the
	// bounded window's interleaving space is exhausted.
	Frontier    int
	FullyClosed bool

	// Violation is the first interleaving, in frontier order, that broke
	// an invariant: its node, and its minimal reproduction after greedy
	// fault removal with the prefix pinned, then greedy trailing-prefix
	// truncation on the shrunk plan. Its Result is that reproduction
	// replayed with trace detail, so Report renders its full timeline.
	Violation *chaos.Failure[*node]
}

// node is one run of the exploration: the plan and choice prefix it forces
// and, once run, what its forking scheduler recorded.
type node struct {
	p          experiment.Plan
	prefix     []int
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

// explore runs a FIFO frontier on the campaign driver. Its first node is
// the probe: the fault-free run, at canonical tie order, that discovers the
// event boundaries inside the fault window, each a fault point. Every other
// passing run that is not a duplicate adds its untaken tie alternatives.
// The driver reads runs in frontier order, so the explored set and every
// counter are the same for any GOMAXPROCS; at most MaxRuns runs are taken.
func explore(cfg Config, inner func() sim.Scheduler) (*Result, error) {
	e := newExplorer(cfg, inner)
	res := &Result{Base: basePlan(cfg.Seed)}
	probe := &node{p: res.Base}
	frontier, taken := []*node{probe}, 0
	census, fail, err := chaos.Driver[*node]{
		Next: func() (*node, bool) {
			if len(frontier) == 0 || taken == cfg.MaxRuns {
				return nil, false
			}
			n := frontier[0]
			frontier, taken = frontier[1:], taken+1
			return n, true
		},
		With: func(n *node, p experiment.Plan) *node { return &node{p: p, prefix: n.prefix} },
		Run:  e.execute,
		Read: func(n *node, r *chaos.RunResult) {
			if r == nil {
				return
			}
			res.Interleavings++
			res.ChoicePoints += len(n.choices)
			switch {
			case r.Failed(): // the driver stops at it
			case n == probe:
				frontier = append(frontier, e.faultAxis(res, n)...)
			case !cfg.NoDedup && e.duplicate(n, r):
				res.Deduped++
			default:
				frontier = append(frontier, e.extend(res, n)...)
			}
		},
		ShrinkBudget: cfg.ShrinkBudget,
		Minimize:     e.shortenPrefix,
		Detail:       true,
	}.Drive()
	if err != nil {
		return nil, err
	}
	res.Census, res.Violation = census, fail
	res.Frontier = len(frontier) + taken - res.Interleavings
	res.FullyClosed = res.Truncated == 0 && fail == nil && res.Frontier == 0
	return res, nil
}

// faultAxis places every fault template at every boundary the probe
// recorded (thinned to MaxFaultPoints): one node each.
func (e *explorer) faultAxis(res *Result, probe *node) []*node {
	bounds := stride(probe.boundaries, e.cfg.MaxFaultPoints)
	for _, b := range bounds {
		res.Boundaries = append(res.Boundaries, time.Duration(b))
	}
	res.FaultPoints = len(bounds) * len(e.cfg.FaultKinds)
	var axis []*node
	for _, f := range e.cfg.FaultKinds {
		for _, b := range bounds {
			p := probe.p
			f.At = time.Duration(b)
			p.Faults = []experiment.Fault{f}
			axis = append(axis, &node{p: p})
		}
	}
	return axis
}

// duplicate reports whether a run with n's outcome fingerprint was already
// seen, and marks it seen.
func (e *explorer) duplicate(n *node, r *chaos.RunResult) bool {
	fp := fingerprint(n.p, r, n.choices)
	dup := e.seen[fp]
	e.seen[fp] = true
	return dup
}

// extend enumerates the untaken alternatives of one passing run: for
// every in-window multi-way tie group at or past the forced prefix, each
// alternative index becomes a new frontier node whose prefix replays
// the run's actual picks up to that group and then diverges.
func (e *explorer) extend(res *Result, n *node) []*node {
	var next []*node
	for ci := len(n.prefix); ci < len(n.choices); ci++ {
		c := n.choices[ci]
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
				prefix[k] = n.choices[k].Picked
			}
			prefix[ci] = alt
			next = append(next, &node{p: n.p, prefix: prefix})
		}
	}
	return next
}

// shortenPrefix is the explorer's shrink after the driver's plan shrink,
// on what is left of the budget: greedy trailing truncation of the choice
// prefix while the shrunk plan still violates.
func (e *explorer) shortenPrefix(n *node, budget int) (*node, int, error) {
	runs := 0
	for len(n.prefix) > 0 && runs < budget {
		cand := &node{p: n.p, prefix: n.prefix[:len(n.prefix)-1]}
		r, err := e.execute(cand, false)
		if err != nil {
			return nil, runs, err
		}
		runs++
		if !r.Failed() {
			break
		}
		n = cand
	}
	return n, runs, nil
}

// execute runs node n's (plan, prefix) on a fresh testbed with the forking
// wrapper injected, and records on n the wrapper's choices and boundaries.
// detail turns on the trace's per-segment events: only a violation's
// report reads them.
func (e *explorer) execute(n *node, detail bool) (*chaos.RunResult, error) {
	var sched *Scheduler
	res, err := chaos.Run(n.p, experiment.Options{
		TraceDetail: detail,
		CustomScheduler: func() sim.Scheduler {
			sched = NewScheduler(e.inner(), n.prefix)
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
	n.choices, n.boundaries = sched.Choices(), sched.Boundaries()
	return res, nil
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
	fmt.Fprintf(&b, "takeovers %d, non-FT transitions %d, guard skips %d\n",
		r.Census.Takeovers, r.Census.NonFT, r.Census.Skipped)
	switch v := r.Violation; {
	case r.FullyClosed:
		b.WriteString("window FULLY CLOSED: every interleaving explored, all invariants held\n")
	case v != nil:
		fmt.Fprintf(&b, "VIOLATION 1 (shrunk in %d runs): prefix %v (from %v)\n", v.ShrinkRuns, v.Min.prefix, v.Job.prefix)
		b.WriteString(v.Result.Report())
	case r.Frontier > 0:
		b.WriteString("window NOT closed (budget reached); no violations found\n")
	default:
		fmt.Fprintf(&b, "window NOT closed (%d choice points truncated beyond -max-prefix); no violations found\n", r.Truncated)
	}
	return b.String()
}
