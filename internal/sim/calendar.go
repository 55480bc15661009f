package sim

// calendarScheduler is a calendar queue (Brown 1988, with the lazy-sort
// refinement of ladder queues) tuned for the simulator's timer-heavy
// workload: thousands of RTO/heartbeat/delivery timers whose deadlines
// cluster within a narrow horizon and which are overwhelmingly re-armed
// or cancelled before they fire.
//
// Layout: a ring of calBuckets buckets, each width nanoseconds wide,
// covering [curStart, ringEnd). The boundary ringEnd is fixed when the
// ring is (re-)anchored — it does NOT advance with curStart, which is
// what keeps every overflow deadline strictly later than every ring
// deadline even as the clock eats through the ring. An event inside the
// window is appended — unsorted, O(1) — to the bucket covering its
// deadline; an event at or beyond ringEnd goes to the unsorted overflow
// tier. The simulator consumes buckets in ring order: when the clock
// enters a bucket its entries are sorted once by (when, seq), and from
// then on it is drained front-to-back (late arrivals into the current
// bucket use a binary-search insert to keep it sorted). When the ring
// runs dry the overflow tier is re-anchored: the bucket width is re-fit
// to the observed event density and overflow entries inside the new
// span are dealt into the ring.
//
// Cancellation is lazy: a cancelled or re-armed timer leaves a
// tombstone (an entry whose recorded generation no longer matches its
// event's) that is discarded when its bucket is drained, or reclaimed
// by a whole-structure compaction when tombstones outnumber live
// entries four to one. Pop order is the exact total order by
// (when, seq), byte-identical to the heap scheduler's — the
// differential tests in scheduler_test.go hold both implementations to
// that contract.
type calendarScheduler struct {
	buckets  [calBuckets][]entry
	cur      int   // index of the bucket the clock is in
	curStart int64 // start of bucket cur's window, ns since Epoch
	ringEnd  int64 // first deadline beyond the ring, fixed at anchor time
	width    int64 // ns per bucket
	sorted   bool  // buckets[cur] is sorted and draining
	drained  int   // buckets[cur][:drained] has been consumed

	overflow []entry // deadlines at or beyond ringEnd

	live int // live entries, ring + overflow
	ring int // total entries in the ring, tombstones included
	dead int // tombstones, ring + overflow
}

const (
	calBuckets = 1 << 10
	calMask    = calBuckets - 1

	// calMinWidth and calMaxWidth clamp the adaptive bucket width. The
	// floor matches sub-microsecond frame serialization gaps; the
	// ceiling keeps a heartbeat-only queue (period 200ms) from mapping
	// a whole run into one bucket.
	calMinWidth  = int64(200)      // 200ns
	calMaxWidth  = int64(10 << 20) // ~10.5ms
	calInitWidth = int64(50_000)   // 50µs, a LAN-scale guess until the first re-anchor
)

func newCalendarScheduler() *calendarScheduler {
	return &calendarScheduler{width: calInitWidth, ringEnd: calInitWidth * calBuckets}
}

func (c *calendarScheduler) Kind() SchedulerKind { return SchedulerCalendar }

func (c *calendarScheduler) Len() int { return c.live }

// span is the total time the ring currently covers.
func (c *calendarScheduler) span() int64 { return c.width * calBuckets }

func (c *calendarScheduler) Schedule(e *Event) {
	en := entry{when: e.when, seq: e.seq, gen: e.gen, ev: e}
	c.live++
	if e.when < c.curStart {
		// Only possible when a run stopped at a deadline short of a
		// re-anchored ring and new work was scheduled in the gap; pull
		// the ring back so the new event is inside it.
		c.rewind(e.when)
	}
	if e.when >= c.ringEnd {
		// amortized overflow growth; steady state reuses capacity (TestCalendarSteadyStateAllocs)
		c.overflow = append(c.overflow, en)
		return
	}
	idx := (c.cur + int((e.when-c.curStart)/c.width)) & calMask
	if idx == c.cur && c.sorted {
		c.insertSortedCur(en)
	} else {
		// amortized bucket growth; steady state reuses capacity (TestCalendarSteadyStateAllocs)
		c.buckets[idx] = append(c.buckets[idx], en)
	}
	c.ring++
}

func (c *calendarScheduler) Cancel(e *Event) {
	c.live--
	c.dead++
	if c.dead > 64 && c.dead > 4*c.live {
		c.compact() // amortized: compaction reuses the overflow backing array
	}
}

func (c *calendarScheduler) Peek() *Event {
	if !c.settle() {
		return nil
	}
	return c.buckets[c.cur][c.drained].ev
}

func (c *calendarScheduler) Pop() *Event {
	if !c.settle() {
		return nil
	}
	b := c.buckets[c.cur]
	en := b[c.drained]
	b[c.drained] = entry{}
	c.drained++
	c.ring--
	c.live--
	return en.ev
}

// settle advances the ring until buckets[cur][drained] is the earliest
// live entry in the whole queue, discarding tombstones on the way. It
// reports false when no live entries remain.
func (c *calendarScheduler) settle() bool {
	if c.live == 0 {
		if c.ring > 0 || len(c.overflow) > 0 {
			c.reset()
		}
		return false
	}
	for {
		b := c.buckets[c.cur]
		if c.drained < len(b) && !c.sorted {
			sortEntries(b)
			c.sorted = true
		}
		for c.drained < len(b) {
			if !b[c.drained].stale() {
				return true
			}
			b[c.drained] = entry{}
			c.drained++
			c.ring--
			c.dead--
		}
		if c.drained > 0 {
			c.buckets[c.cur] = b[:0]
		}
		c.drained = 0
		c.sorted = false
		if c.ring == 0 {
			if !c.reanchor() { // the between-bursts slow path; compaction reuses backing arrays
				return false
			}
			continue
		}
		c.cur = (c.cur + 1) & calMask
		c.curStart += c.width
	}
}

// insertSortedCur places en into the (sorted, draining) current bucket.
// Every earlier-keyed entry has already been consumed — the simulator
// clamps deadlines to the present and seq grows monotonically — so the
// insertion point is always at or after drained.
func (c *calendarScheduler) insertSortedCur(en entry) {
	b := c.buckets[c.cur]
	lo, hi := c.drained, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].less(en) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// amortized bucket growth; steady state reuses capacity (TestCalendarSteadyStateAllocs)
	b = append(b, entry{})
	copy(b[lo+1:], b[lo:])
	b[lo] = en
	c.buckets[c.cur] = b
}

// reanchor re-fits the ring to the overflow tier once the ring is
// empty: bucket width is recomputed from the live overflow density,
// curStart jumps to the earliest overflow deadline, and every overflow
// entry inside the new span is dealt into the ring. Reports false when
// nothing live remains anywhere.
func (c *calendarScheduler) reanchor() bool {
	// Compact the overflow in place, dropping tombstones and finding the
	// live extremes.
	keep := c.overflow[:0]
	var minWhen, maxWhen int64
	for _, en := range c.overflow {
		if en.stale() {
			c.dead--
			continue
		}
		if len(keep) == 0 || en.when < minWhen {
			minWhen = en.when
		}
		if len(keep) == 0 || en.when > maxWhen {
			maxWhen = en.when
		}
		keep = append(keep, en)
	}
	for i := len(keep); i < len(c.overflow); i++ {
		c.overflow[i] = entry{}
	}
	c.overflow = keep
	if len(keep) == 0 {
		return false
	}

	// Width ≈ 3× the mean inter-event gap (Brown's rule of thumb), so a
	// bucket holds a handful of events. Depends only on queue content,
	// never on wall time, so replay stays deterministic.
	span := maxWhen - minWhen
	w := 3 * span / int64(len(keep))
	if w < calMinWidth {
		w = calMinWidth
	}
	if w > calMaxWidth {
		w = calMaxWidth
	}
	c.width = w
	c.cur = 0
	c.curStart = minWhen
	c.ringEnd = minWhen + c.span()
	c.sorted = false
	c.drained = 0

	// Deal overflow entries inside the new window into the ring.
	dst := c.overflow[:0]
	for _, en := range c.overflow {
		if en.when < c.ringEnd {
			idx := int((en.when-c.curStart)/c.width) & calMask
			c.buckets[idx] = append(c.buckets[idx], en)
			c.ring++
		} else {
			dst = append(dst, en)
		}
	}
	for i := len(dst); i < len(c.overflow); i++ {
		c.overflow[i] = entry{}
	}
	c.overflow = dst
	return true
}

// rewind pulls the ring back so that a deadline earlier than curStart
// fits: every ring entry is spilled to overflow, the ring restarts at the
// new deadline, and everything inside the new window is dealt back in.
// The final step is what maintains the ringEnd invariant — without it,
// spilled entries below the new ringEnd would sit in overflow (consulted
// only when the ring drains dry) while later-scheduled ring entries fire
// first. Only reachable when a run stopped at a deadline short of a
// re-anchored ring, so it is never on the hot path.
func (c *calendarScheduler) rewind(when int64) {
	c.rewindKeepStart()
	c.curStart = when
	c.ringEnd = when + c.span()
	// Every spilled or overflow entry is at or after the old curStart,
	// and the new curStart precedes it, so the offsets below are never
	// negative and never reach past the ring.
	dst := c.overflow[:0]
	for _, en := range c.overflow {
		if en.when < c.ringEnd {
			idx := int((en.when-c.curStart)/c.width) & calMask
			c.buckets[idx] = append(c.buckets[idx], en)
			c.ring++
		} else {
			dst = append(dst, en)
		}
	}
	for i := len(dst); i < len(c.overflow); i++ {
		c.overflow[i] = entry{}
	}
	c.overflow = dst
}

// drainedFor returns how many entries at the front of bucket i have
// already been consumed (only ever non-zero for the current bucket).
func (c *calendarScheduler) drainedFor(i int) int {
	if i == c.cur {
		return c.drained
	}
	return 0
}

// compact rebuilds the whole structure without tombstones: all live
// entries are gathered into overflow and the ring is re-anchored.
func (c *calendarScheduler) compact() {
	c.rewindKeepStart()
	c.reanchor()
}

// rewindKeepStart spills the ring into overflow (dropping tombstones as
// it goes is left to reanchor) without moving curStart.
func (c *calendarScheduler) rewindKeepStart() {
	for i := range c.buckets {
		b := c.buckets[i]
		for j := c.drainedFor(i); j < len(b); j++ {
			c.overflow = append(c.overflow, b[j])
			b[j] = entry{}
		}
		c.buckets[i] = b[:0]
	}
	c.ring = 0
	c.cur = 0
	c.sorted = false
	c.drained = 0
}

// reset clears leftover tombstones once the queue holds nothing live.
func (c *calendarScheduler) reset() {
	for i := range c.buckets {
		b := c.buckets[i]
		if len(b) == 0 {
			continue
		}
		for j := range b {
			b[j] = entry{}
		}
		c.buckets[i] = b[:0]
	}
	for i := range c.overflow {
		c.overflow[i] = entry{}
	}
	c.overflow = c.overflow[:0]
	c.ring = 0
	c.dead = 0
	c.sorted = false
	c.drained = 0
}
