package sim

// heapArity is the heap's fan-out. Against a binary heap, four children a
// node halve the depth a sift walks — half the moves and position updates —
// for the same number of comparisons. Measured against 2 on the benchmark
// it is a tie on echo's shallow queue and 2 % ahead, within the noise, on
// scale's thousands-deep one (EXPERIMENTS.md "What a segment costs the
// host").
const heapArity = 4

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

// heapScheduler is the Scheduler every run uses: an indexed min-heap of
// entries ordered by (when, seq). It holds live events only — each queued
// Event records where its entry sits (Event.heapPos), so Cancel takes the
// entry out in place, and len(q) is Len(). A timer pushed back before it
// fires (the RTO on every ACK) sits at or near a leaf, where removal
// refills the hole from the last slot with little or no sifting.
type heapScheduler struct {
	q []heapEntry
}

func (h *heapScheduler) Kind() SchedulerKind { return SchedulerHeap }

func (h *heapScheduler) Len() int { return len(h.q) }

func (h *heapScheduler) Schedule(e *Event) {
	// amortized heap growth; steady state reuses capacity (TestHeapSteadyStateAllocs)
	h.q = append(h.q, heapEntry{})
	h.up(len(h.q)-1, heapEntry{when: e.when, seq: e.seq, ev: e})
}

// Cancel of an event that is not queued is a no-op.
func (h *heapScheduler) Cancel(e *Event) {
	if e.heapPos > 0 {
		h.remove(e.heapPos - 1)
	}
}

func (h *heapScheduler) Peek() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0].ev
}

func (h *heapScheduler) Pop() *Event {
	if len(h.q) == 0 {
		return nil
	}
	e := h.q[0].ev
	h.remove(0)
	return e
}

// remove takes the entry at i out: the last entry leaves its slot and is
// sifted from the hole at i to wherever it belongs.
func (h *heapScheduler) remove(i int) {
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
func (h *heapScheduler) up(i int, en heapEntry) {
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
func (h *heapScheduler) down(i int, en heapEntry) {
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
func (h *heapScheduler) place(i int, en heapEntry) {
	h.q[i] = en
	en.ev.heapPos = i + 1
}
