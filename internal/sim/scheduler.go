package sim

// SchedulerKind selects the event-queue implementation backing a
// Simulator. The zero value picks the default (the heap). Nothing
// above this package selects a kind: every run uses the heap, and the
// enum survives only for the benchmark's hold-model drivers and the
// differential tests here (see DESIGN.md "Scheduler architecture").
type SchedulerKind uint8

const (
	// SchedulerDefault resolves to the reference implementation.
	SchedulerDefault SchedulerKind = iota
	// SchedulerHeap is the pair of indexed min-heaps, near and far,
	// every run uses: O(log n) insert, pop and cancel, robust for any
	// event mix.
	SchedulerHeap
	// SchedulerCalendar is a calendar queue tuned for the RTO/HB
	// timer-heavy workload: events land in time-indexed buckets by O(1)
	// append and each bucket is sorted once when the clock reaches it,
	// so steady-state insert cost does not grow with the queue.
	SchedulerCalendar
)

// Resolve maps SchedulerDefault onto the concrete default implementation
// and returns any other kind unchanged.
func (k SchedulerKind) Resolve() SchedulerKind {
	if k == SchedulerDefault {
		return SchedulerHeap
	}
	return k
}

// String names the kind.
func (k SchedulerKind) String() string {
	switch k.Resolve() {
	case SchedulerCalendar:
		return "calendar"
	default:
		return "heap"
	}
}

// Config configures a Simulator. The zero value is valid: seed 0 and the
// default scheduler.
type Config struct {
	// Seed drives all randomness in the run.
	Seed int64
	// Scheduler selects the event-queue implementation.
	Scheduler SchedulerKind
	// Custom, when non-nil, supplies the event queue directly and
	// Scheduler is ignored. This is the injection point for scheduler
	// wrappers — the exhaustive-interleaving explorer decorates a stock
	// queue (see NewScheduler) to fork on same-timestamp tie-breaks.
	// A custom scheduler must still honour the Scheduler contract for
	// events at distinct timestamps: the simulator's clock follows pop
	// order, so only exact ties are safely permutable.
	Custom Scheduler
}

// Scheduler is the event-queue backend of a Simulator: a priority queue
// over (virtual time, sequence number) keys. The Simulator owns Event
// lifecycle (sequence numbers, generation bumps, the live flag); the
// scheduler owns placement and retrieval. All implementations must yield
// the exact same pop order — the total order by (when, seq) — for the
// same schedule/cancel history, which is what keeps a run's trace
// independent of the scheduler selected (proved by the differential
// tests in scheduler_test.go).
//
// How a cancelled entry leaves is the implementation's business: the
// heap takes it out at once, the calendar leaves a tombstone — an entry
// whose recorded generation no longer matches the event's — and skips or
// compacts it later. Either way Len, Peek and Pop see live events only.
type Scheduler interface {
	// Kind identifies the implementation.
	Kind() SchedulerKind
	// Len reports the number of live (scheduled, not cancelled) events.
	Len() int
	// Schedule inserts e keyed by its (when, seq). The caller guarantees
	// e has no live entry in the queue.
	Schedule(e *Event)
	// Cancel drops e's pending entry. The caller has already bumped e's
	// generation, which is what marks a lazily-cancelling queue's entry
	// stale.
	Cancel(e *Event)
	// Peek returns the earliest live event without removing it, nil when
	// no live events remain.
	Peek() *Event
	// Pop removes and returns the earliest live event, nil when no live
	// events remain.
	Pop() *Event
}

// newScheduler constructs the implementation for k.
func newScheduler(k SchedulerKind) Scheduler {
	if k.Resolve() == SchedulerCalendar {
		return newCalendarScheduler()
	}
	return newHeapScheduler()
}

// NewScheduler constructs a standalone event queue of kind k, for
// wrappers that decorate a stock implementation and inject themselves
// via Config.Custom. Everyone else lets NewWithConfig pick the queue.
func NewScheduler(k SchedulerKind) Scheduler { return newScheduler(k) }

// entry is one scheduled occurrence of an Event in the calendar queue
// (the heap keeps its own, gen-less heapEntry). The (when, seq) key is
// copied out of the event so ordering never dereferences the event on
// the comparison path, and gen snapshots the event's generation at
// schedule time: a mismatch later means the occurrence was cancelled or
// superseded (timer re-arm) and the entry is a tombstone.
type entry struct {
	when int64 // virtual time, nanoseconds since Epoch
	seq  uint64
	gen  uint32
	ev   *Event
}

// stale reports whether the entry is a tombstone.
func (en entry) stale() bool { return en.gen != en.ev.gen }

// less orders entries by (when, seq); seq is unique per simulator, so
// this is a strict total order.
func (en entry) less(o entry) bool {
	if en.when != o.when {
		return en.when < o.when
	}
	return en.seq < o.seq
}

// sortEntries sorts es ascending by (when, seq) without going through
// sort.Interface (no boxing, zero allocation): insertion sort for short
// runs, median-of-three quicksort above that. Keys are unique, so
// stability is moot.
func sortEntries(es []entry) {
	for len(es) > 24 {
		lo, hi := 0, len(es)-1
		mid := lo + (hi-lo)/2
		// median-of-three pivot, stashed at es[lo]
		if es[mid].less(es[lo]) {
			es[mid], es[lo] = es[lo], es[mid]
		}
		if es[hi].less(es[lo]) {
			es[hi], es[lo] = es[lo], es[hi]
		}
		if es[hi].less(es[mid]) {
			es[hi], es[mid] = es[mid], es[hi]
		}
		es[lo], es[mid] = es[mid], es[lo]
		pivot := es[lo]
		i, j := lo, hi+1
		for {
			for i++; i < len(es) && es[i].less(pivot); i++ {
			}
			for j--; pivot.less(es[j]); j-- {
			}
			if i >= j {
				break
			}
			es[i], es[j] = es[j], es[i]
		}
		es[lo], es[j] = es[j], es[lo]
		// recurse on the smaller half, loop on the larger
		if j-lo < len(es)-j {
			sortEntries(es[lo:j])
			es = es[j+1:]
		} else {
			sortEntries(es[j+1:])
			es = es[lo:j]
		}
	}
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].less(es[j-1]); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
