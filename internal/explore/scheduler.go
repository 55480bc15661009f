// Package explore turns the chaos harness's sampled luck into
// proof-shaped coverage: within a bounded virtual-time window around a
// takeover it systematically enumerates (a) every same-timestamp
// tie-break order the event queue could legally choose and (b) every
// fault placement at the event boundaries inside the window, replays
// each interleaving through a sealed simulator, and judges every run
// with the full chaos invariant registry. Small configurations (one
// connection, one failover) close completely — the frontier of
// unexplored alternatives drains to zero — and any violating
// interleaving shrinks to a minimal schedule plus a minimal choice
// sequence, exactly like a chaos failure does.
//
// The exploration is stateless model checking in the VeriSoft style:
// a run is identified by its schedule and a choice prefix, and every
// candidate is re-executed from the start through the deterministic
// simulator, so no simulator state is ever snapshotted or restored.
// DPOR-style independence pruning (same-instant events on disjoint
// hosts commute) and order-insensitive run fingerprints keep the
// enumeration tractable; both are engineered approximations and both
// can be disabled to re-verify a closure claim the slow way.
package explore

import (
	"fmt"

	"repro/internal/sim"
)

// Choice records one tie-break decision the scheduler made: at virtual
// time WhenNS, N events were ready simultaneously and the one at index
// Picked (in (when, seq) order) fired first.
type Choice struct {
	// WhenNS is the tie group's virtual time, nanoseconds since sim.Epoch.
	WhenNS int64
	// N is the group size (always ≥ 2; one-event pops are not choices).
	N int
	// Picked is the chosen index within the group, in (when, seq) order.
	Picked int
	// Ctxs holds each group member's causal context (trace span ID, or
	// zero), in group order — the raw material for independence pruning.
	Ctxs []uint64
}

// Scheduler is a sim.Scheduler decorator that exposes same-timestamp
// tie-breaks as explicit choice points. It pops the entire group of
// events sharing the earliest virtual time from the inner queue, fires
// the member selected by the forced choice sequence (or the canonical
// (when, seq) order once the sequence is exhausted), and re-schedules
// the rest. Every multi-way group is recorded as a Choice, so a driver
// can enumerate the alternatives it did not take.
//
// With an empty choice sequence the pop order is byte-identical to the
// inner scheduler's — the differential test in internal/experiment
// holds it to that — so exploration results transfer directly to
// production runs. Permuting a tie group never reorders distinct
// timestamps, which keeps the simulator's clock monotonic.
type Scheduler struct {
	inner  sim.Scheduler
	forced []int

	used    int      // forced choices consumed
	choices []Choice // every multi-way tie, in pop order

	// next is the decided-but-unpopped head: RunUntil fires the event it
	// Peeked, so Peek must commit to the same answer Pop will give. The
	// decision is provisional until popped — scheduling an event at or
	// before next's time, or cancelling next, un-decides it (and rolls
	// back the recorded Choice) so the group can re-form.
	next          *sim.Event
	pendingChoice bool
	usedBefore    int

	// forkLo/forkHi bound the choice points (see ForkWindow); unset
	// means everywhere.
	forkLo, forkHi int64

	// boundary recording: distinct pop timestamps inside the window, for
	// the fault-placement axis.
	boundaryLo, boundaryHi int64
	boundaries             []int64

	// order auditing: the scheduler contract says pops never go backward
	// in time. The wrapper sees every pop, so it doubles as a runtime
	// checker of the inner queue — the seeded rewind-strand bug is caught
	// exactly here.
	lastWhen  int64
	orderErrs []string

	group []*sim.Event // gather scratch
}

// NewScheduler decorates inner, which must be fresh and empty; nil means
// the heap every run uses. forced is the choice prefix: the i-th recorded
// multi-way tie group pops the member at index forced[i] (reduced modulo
// the group size, so any int sequence is a valid input — the fuzz target
// leans on that); groups beyond the prefix pop in canonical (when, seq)
// order.
func NewScheduler(inner sim.Scheduler, forced []int) *Scheduler {
	if inner == nil {
		inner = heapQueue()
	}
	return &Scheduler{inner: inner, forced: forced}
}

// heapQueue builds the inner queue of every production exploration.
func heapQueue() sim.Scheduler { return sim.NewScheduler(sim.SchedulerHeap) }

// ForkWindow restricts choice recording (and forced-prefix consumption)
// to tie groups whose virtual time falls in [loNS, hiNS); groups outside
// pop canonically and consume nothing. Unset, every group is a choice
// point. Bounding the window keeps prefix indices aligned with the
// branching the driver actually explores — a prefix of length n always
// addresses the first n in-window groups. Must be set before the run.
func (x *Scheduler) ForkWindow(loNS, hiNS int64) {
	x.forkLo, x.forkHi = loNS, hiNS
}

// Choices returns the tie-break decisions recorded so far, in pop
// order. The slice is the scheduler's own; callers must not mutate it.
func (x *Scheduler) Choices() []Choice { return x.choices }

// RecordBoundaries makes the scheduler collect the distinct virtual
// times of pops inside [loNS, hiNS) — the event boundaries where the
// driver's fault axis places injections. Must be set before the run.
func (x *Scheduler) RecordBoundaries(loNS, hiNS int64) {
	x.boundaryLo, x.boundaryHi = loNS, hiNS
}

// Boundaries returns the distinct in-window pop timestamps observed, in
// increasing order.
func (x *Scheduler) Boundaries() []int64 { return x.boundaries }

// OrderViolations returns the scheduler-contract breaches observed: pops
// whose virtual time went backward. A correct inner queue never produces
// any; the explorer turns each into an invariant violation.
func (x *Scheduler) OrderViolations() []string { return x.orderErrs }

// Kind reports the inner queue's kind (sim.Scheduler requires it).
func (x *Scheduler) Kind() sim.SchedulerKind { return x.inner.Kind() }

// Len counts the inner queue plus the decided head, if any.
func (x *Scheduler) Len() int {
	n := x.inner.Len()
	if x.next != nil {
		n++
	}
	return n
}

// Schedule inserts e. If a decided head exists and e lands at or before
// its timestamp, the decision is rolled back first: the newcomer either
// precedes the head outright or joins its tie group, and in both cases
// the choice must be re-made over the full group.
func (x *Scheduler) Schedule(e *sim.Event) {
	if x.next != nil {
		when, _ := e.SchedKey()
		nextWhen, _ := x.next.SchedKey()
		if when <= nextWhen {
			x.undecide()
		}
	}
	x.inner.Schedule(e)
}

// Cancel removes e. Cancelling the decided head un-decides it (the
// surviving group members are already back in the inner queue, so the
// next Peek re-forms the group without the victim); anything else is
// the inner queue's business.
func (x *Scheduler) Cancel(e *sim.Event) {
	if e == x.next {
		x.next = nil
		x.rollbackChoice()
		return
	}
	x.inner.Cancel(e)
}

// Peek returns the event Pop will return, deciding the current tie
// group if needed.
func (x *Scheduler) Peek() *sim.Event { return x.decide() }

// Pop removes and returns the earliest event under the explored order.
func (x *Scheduler) Pop() *sim.Event {
	e := x.decide()
	if e != nil {
		when, _ := e.SchedKey()
		if when < x.lastWhen {
			x.orderErrs = append(x.orderErrs, fmt.Sprintf(
				"%s queue popped t=%dns after t=%dns: virtual time went backward",
				x.inner.Kind(), when, x.lastWhen))
		} else {
			x.lastWhen = when
		}
		if x.boundaryHi > x.boundaryLo && when >= x.boundaryLo && when < x.boundaryHi {
			if n := len(x.boundaries); n == 0 || x.boundaries[n-1] != when {
				x.boundaries = append(x.boundaries, when)
			}
		}
		x.next = nil
		x.pendingChoice = false // the decision is final once popped
	}
	return e
}

// undecide pushes the decided head back into the inner queue and rolls
// back its recorded Choice, so the tie group re-forms (possibly with a
// new member) at the next decide.
func (x *Scheduler) undecide() {
	x.inner.Schedule(x.next)
	x.next = nil
	x.rollbackChoice()
}

func (x *Scheduler) rollbackChoice() {
	if x.pendingChoice {
		x.choices = x.choices[:len(x.choices)-1]
		x.used = x.usedBefore
		x.pendingChoice = false
	}
}

// decide gathers the group of events sharing the earliest virtual time,
// applies the forced choice (or canonical order), records multi-way
// groups, re-schedules the rest, and caches the winner until it is
// popped or invalidated.
func (x *Scheduler) decide() *sim.Event {
	if x.next != nil {
		return x.next
	}
	first := x.inner.Pop()
	if first == nil {
		return nil
	}
	when, _ := first.SchedKey()
	x.group = append(x.group[:0], first)
	for {
		p := x.inner.Peek()
		if p == nil {
			break
		}
		if w, _ := p.SchedKey(); w != when {
			break
		}
		x.group = append(x.group, x.inner.Pop())
	}

	pick := 0
	x.usedBefore = x.used
	x.pendingChoice = false
	inFork := x.forkHi <= x.forkLo || (when >= x.forkLo && when < x.forkHi)
	if len(x.group) > 1 && inFork {
		if x.used < len(x.forced) {
			pick = x.forced[x.used] % len(x.group)
			if pick < 0 {
				pick += len(x.group)
			}
			x.used++
		}
		ch := Choice{WhenNS: when, N: len(x.group), Picked: pick, Ctxs: make([]uint64, len(x.group))}
		for i, e := range x.group {
			ch.Ctxs[i] = e.CausalContext()
		}
		x.choices = append(x.choices, ch)
		x.pendingChoice = true
	}

	chosen := x.group[pick]
	for i, e := range x.group {
		if i != pick {
			x.inner.Schedule(e)
		}
		x.group[i] = nil
	}
	x.group = x.group[:0]
	x.next = chosen
	return chosen
}
