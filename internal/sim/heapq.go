package sim

import "time"

// heapArity is each heap's fan-out. Against a binary heap, four children a
// node halve the depth a sift walks — half the moves and position updates —
// for the same number of comparisons. Measured against 2 on the benchmark
// it is a tie on echo's shallow queue and 2 % ahead, within the noise, on
// scale's thousands-deep one (EXPERIMENTS.md "Host cost history").
const heapArity = 4

// nearSpan splits the queue in two. An event due less than nearSpan after
// the last popped instant goes to the near heap, every other to the far
// heap. The near heap is what a segment pushes and pops: frame deliveries,
// link-side timers (a 1,514 B frame takes 1.2 ms on the slowest shipped
// LAN, 10 Mbit/s) and queued wake-ups. The far heap is every connection's
// RTO, TIME_WAIT and persist timer and every heartbeat and detector tick,
// the shortest of which is the heartbeat liveness check at a quarter of
// the period, 25 ms at Demo 2's 100 ms. So nearSpan lies between the two,
// and a pop sifts through the few events in flight instead of through
// every connection's timers. Both heaps order by the same (when, seq) key
// and a pop takes the lesser root, so nearSpan changes cost only, never
// order: an event stays in the heap it entered while the clock nears it.
const nearSpan = int64(4 * time.Millisecond)

// heapEntry is one queued Event. The (when, seq) key is copied out of the
// event so ordering never dereferences it on the comparison path.
type heapEntry struct {
	when int64 // virtual time, nanoseconds since Epoch
	seq  uint64
	ev   *Event
}

func (en heapEntry) less(o heapEntry) bool {
	if en.when != o.when {
		return en.when < o.when
	}
	return en.seq < o.seq
}

// heapScheduler is the Scheduler every run uses: two indexed min-heaps of
// entries ordered by (when, seq), the near and the far one (nearSpan). It
// holds live events only — each queued Event records which heap its entry
// sits in and where (Event.heapPos), so Cancel takes the entry out in
// place, and the two lengths sum to Len(). A timer pushed back before it
// fires (the RTO on every ACK) sits at or near a leaf of the far heap,
// where removal refills the hole from the last slot with little or no
// sifting.
type heapScheduler struct {
	near, far indexedHeap
	last      int64 // the instant of the last pop, where the near span starts
}

func newHeapScheduler() *heapScheduler {
	return &heapScheduler{near: indexedHeap{sign: 1}, far: indexedHeap{sign: -1}}
}

func (h *heapScheduler) Kind() SchedulerKind { return SchedulerHeap }

func (h *heapScheduler) Len() int { return len(h.near.q) + len(h.far.q) }

func (h *heapScheduler) Schedule(e *Event) {
	half := &h.far
	if e.when-h.last < nearSpan {
		half = &h.near
	}
	half.push(heapEntry{when: e.when, seq: e.seq, ev: e})
}

// Cancel of an event that is not queued is a no-op.
func (h *heapScheduler) Cancel(e *Event) {
	switch {
	case e.heapPos > 0:
		h.near.remove(e.heapPos - 1)
	case e.heapPos < 0:
		h.far.remove(-e.heapPos - 1)
	}
}

// top returns the heap whose root pops next: the far one when its root
// sorts first or the near one is empty, else the near one, which is empty
// only when both are.
func (h *heapScheduler) top() *indexedHeap {
	if len(h.far.q) != 0 && (len(h.near.q) == 0 || h.far.q[0].less(h.near.q[0])) {
		return &h.far
	}
	return &h.near
}

func (h *heapScheduler) Peek() *Event {
	if t := h.top(); len(t.q) != 0 {
		return t.q[0].ev
	}
	return nil
}

func (h *heapScheduler) Pop() *Event {
	t := h.top()
	if len(t.q) == 0 {
		return nil
	}
	e := t.q[0].ev
	t.remove(0)
	h.last = e.when
	return e
}

// indexedHeap is one 4-ary min-heap of entries. Each entry's event records
// its position as sign × (1 + index), so the sign names the heap.
type indexedHeap struct {
	q    []heapEntry
	sign int
}

func (h *indexedHeap) push(en heapEntry) {
	// amortized heap growth; steady state reuses capacity (TestHeapSteadyStateAllocs)
	h.q = append(h.q, heapEntry{})
	h.up(len(h.q)-1, en)
}

// remove takes the entry at i out: the last entry leaves its slot and is
// sifted from the hole at i to wherever it belongs.
func (h *indexedHeap) remove(i int) {
	h.q[i].ev.heapPos = 0
	n := len(h.q) - 1
	last := h.q[n]
	h.q[n] = heapEntry{} // drop the *Event so the backing array never pins it
	h.q = h.q[:n]
	if i == n {
		return
	}
	if i > 0 && last.less(h.q[(i-1)/heapArity]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up moves the hole at i toward the root until en fits, and puts en there.
func (h *indexedHeap) up(i int, en heapEntry) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !en.less(h.q[parent]) {
			break
		}
		h.place(i, h.q[parent])
		i = parent
	}
	h.place(i, en)
}

// down moves the hole at i toward the leaves until en fits, and puts en
// there.
func (h *indexedHeap) down(i int, en heapEntry) {
	n := len(h.q)
	for {
		least := heapArity*i + 1
		if least >= n {
			break
		}
		end := least + heapArity
		if end > n {
			end = n
		}
		for c := least + 1; c < end; c++ {
			if h.q[c].less(h.q[least]) {
				least = c
			}
		}
		if !h.q[least].less(en) {
			break
		}
		h.place(i, h.q[least])
		i = least
	}
	h.place(i, en)
}

// place stores en at i and records the position in its event: the one
// spot where an entry moves, so the two can never disagree.
func (h *indexedHeap) place(i int, en heapEntry) {
	h.q[i] = en
	en.ev.heapPos = h.sign * (i + 1)
}
