package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// schedulerKinds are the concrete implementations every differential test
// runs against.
var schedulerKinds = []SchedulerKind{SchedulerHeap, SchedulerCalendar}

// runWorkload drives one simulator through a randomized timer-heavy
// workload — self-re-arming timers with jittered periods, cross-timer
// stops and re-arms, pooled Post chains, bursts of same-instant events,
// and one far timer pushed back from every firing event the way a
// connection's RTO is on every ACK — and returns the exact firing trace,
// so the differential covers removal at a leaf (the far timer), mid-heap
// (the cross-timer meddling) and at the root. The workload draws all
// randomness from the simulator's own seeded source, so two simulators
// with the same seed see byte-identical schedules regardless of which
// Scheduler backs them.
func runWorkload(s *Simulator, horizon time.Duration) []string {
	var trace []string
	rng := s.Rand()
	record := func(label string) {
		trace = append(trace, fmt.Sprintf("%d %s", s.Elapsed(), label))
	}

	rto := s.NewTimer(func() { record("rto") })
	const nTimers = 40
	timers := make([]*Timer, nTimers)
	for i := 0; i < nTimers; i++ {
		i := i
		timers[i] = s.NewTimer(func() {
			record(fmt.Sprintf("timer%d", i))
			rto.Arm(20*time.Millisecond + time.Duration(rng.Int63n(int64(20*time.Millisecond))))
			// Re-arm with a jittered period spanning ns to ms scales, so
			// events land across many calendar buckets and in overflow.
			delay := time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
			timers[i].Arm(delay)
			// Occasionally meddle with a random peer: half stops, half
			// forced re-arms — both cancel an entry wherever it sits.
			switch rng.Intn(10) {
			case 0:
				timers[rng.Intn(nTimers)].Stop()
			case 1:
				timers[rng.Intn(nTimers)].Arm(time.Duration(rng.Int63n(int64(time.Millisecond))))
			case 2:
				// Same-instant burst: FIFO order must hold across backends.
				for k := 0; k < 3; k++ {
					k := k
					s.Post(0, func() { record(fmt.Sprintf("burst%d.%d", i, k)) })
				}
			case 3:
				// A pooled chain two hops deep.
				s.Post(time.Duration(rng.Int63n(int64(100*time.Microsecond))), func() {
					record(fmt.Sprintf("chain%d", i))
					s.Post(time.Duration(rng.Int63n(int64(10*time.Microsecond))), func() {
						record(fmt.Sprintf("chain%d'", i))
					})
				})
			case 4:
				// A cancellable one-shot that is usually cancelled at a
				// later, random moment.
				ev := s.Schedule(time.Duration(rng.Int63n(int64(2*time.Millisecond))), func() {
					record(fmt.Sprintf("oneshot%d", i))
				})
				if rng.Intn(3) > 0 {
					s.Post(time.Duration(rng.Int63n(int64(time.Millisecond))), func() { s.Cancel(ev) })
				}
			}
		})
		timers[i].Arm(time.Duration(rng.Int63n(int64(time.Millisecond))))
	}
	// A sparse far-future layer to stress the calendar's overflow tier.
	for i := 0; i < 8; i++ {
		i := i
		s.Schedule(time.Duration(i+1)*horizon/10, func() { record(fmt.Sprintf("far%d", i)) })
	}
	if err := s.Run(horizon); err != nil {
		trace = append(trace, "ERR "+err.Error())
	}
	return trace
}

// TestSchedulerDifferential is the determinism proof for the pluggable
// scheduler API: for each seed, the heap and calendar backends must
// produce byte-identical firing traces for the same workload.
func TestSchedulerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		traces := make(map[SchedulerKind][]string)
		for _, kind := range schedulerKinds {
			s := NewWithConfig(Config{Seed: seed, Scheduler: kind})
			if got := s.sched.Kind(); got != kind {
				t.Fatalf("seed %d: scheduler Kind() = %v, want %v", seed, got, kind)
			}
			traces[kind] = runWorkload(s, 200*time.Millisecond)
		}
		ref := traces[SchedulerHeap]
		if len(ref) == 0 {
			t.Fatalf("seed %d: workload fired no events", seed)
		}
		for _, kind := range schedulerKinds[1:] {
			got := traces[kind]
			if len(got) != len(ref) {
				t.Fatalf("seed %d: %v fired %d events, heap fired %d", seed, kind, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d: traces diverge at event %d: heap=%q %v=%q", seed, i, ref[i], kind, got[i])
				}
			}
		}
	}
}

// TestSchedulerDifferentialRawOps drives both backends directly through
// the Scheduler interface with a random schedule/cancel/pop mix —
// independent of the Simulator loop — and checks identical pop
// sequences. This catches ordering bugs the simulator-level workload
// might mask (it never interleaves pops between schedules the way the
// run loop does).
func TestSchedulerDifferentialRawOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		popped := make(map[SchedulerKind][]uint64)
		for _, kind := range schedulerKinds {
			rng := rand.New(rand.NewSource(seed)) //sttcp:allow simdeterminism test-local fixed-seed source
			sched := newScheduler(kind)
			var lives []*Event
			var now int64
			var seq uint64
			for op := 0; op < 20_000; op++ {
				switch r := rng.Intn(10); {
				case r < 5: // schedule
					e := &Event{when: now + rng.Int63n(int64(10*time.Millisecond)), seq: seq, live: true}
					seq++
					sched.Schedule(e)
					lives = append(lives, e)
				case r < 7 && len(lives) > 0: // cancel a random live event
					i := rng.Intn(len(lives))
					e := lives[i]
					lives[i] = lives[len(lives)-1]
					lives = lives[:len(lives)-1]
					e.live = false
					e.gen++
					sched.Cancel(e)
				default: // pop
					e := sched.Pop()
					if e == nil {
						continue
					}
					if e.when < now {
						t.Fatalf("seed %d %v: pop went backwards: %d < %d", seed, kind, e.when, now)
					}
					now = e.when
					e.live = false
					e.gen++
					popped[kind] = append(popped[kind], e.seq)
					for i, l := range lives {
						if l == e {
							lives[i] = lives[len(lives)-1]
							lives = lives[:len(lives)-1]
							break
						}
					}
				}
			}
			// Drain what remains.
			for {
				e := sched.Pop()
				if e == nil {
					break
				}
				e.live = false
				e.gen++
				popped[kind] = append(popped[kind], e.seq)
			}
			if sched.Len() != 0 {
				t.Fatalf("seed %d %v: Len() = %d after drain", seed, kind, sched.Len())
			}
		}
		ref := popped[SchedulerHeap]
		for _, kind := range schedulerKinds[1:] {
			got := popped[kind]
			if len(got) != len(ref) {
				t.Fatalf("seed %d: %v popped %d, heap popped %d", seed, kind, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d: pop order diverges at %d: heap=seq%d %v=seq%d", seed, i, ref[i], kind, got[i])
				}
			}
		}
	}
}

// TestCalendarOverflowReanchor forces the overflow → reanchor path:
// events far beyond the initial ring span must still fire in exact
// order, across several re-anchors with very different densities.
func TestCalendarOverflowReanchor(t *testing.T) {
	s := NewWithConfig(Config{Scheduler: SchedulerCalendar})
	var got []int
	// Dense microsecond cluster now, a sparse cluster an hour out, and a
	// second dense cluster a day out — three re-anchors at three widths.
	want := make([]int, 0, 300)
	id := 0
	add := func(base time.Duration, step time.Duration, n int) {
		for i := 0; i < n; i++ {
			v := id
			id++
			s.Schedule(base+time.Duration(i)*step, func() { got = append(got, v) })
			want = append(want, v)
		}
	}
	add(0, time.Microsecond, 100)
	add(time.Hour, time.Second, 100)
	add(24*time.Hour, 10*time.Microsecond, 100)
	if err := s.Run(25 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: fired id %d, want %d", i, got[i], want[i])
		}
	}
}

// TestCalendarRewind covers the one legal way an insert can precede the
// ring: a run stops at a deadline short of a re-anchored ring, then new
// work is scheduled in the gap.
func TestCalendarRewind(t *testing.T) {
	s := NewWithConfig(Config{Scheduler: SchedulerCalendar})
	var got []string
	s.Schedule(time.Hour, func() { got = append(got, "far") })
	// Run to a deadline before the event: forces a Peek (which re-anchors
	// the ring at t=1h) and leaves the clock at 30m.
	if err := s.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if s.Elapsed() != 30*time.Minute {
		t.Fatalf("clock at %v, want 30m", s.Elapsed())
	}
	// This deadline is before curStart: Schedule must rewind the ring.
	s.Schedule(time.Minute, func() { got = append(got, "near") })
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "near" || got[1] != "far" {
		t.Fatalf("fired %v, want [near far]", got)
	}
}

// TestCalendarRewindKeepsOverflowOrdered is the regression test for a
// rewind that strands spilled entries in overflow: two far events land in
// the ring at re-anchor, a rewind spills them back out, and the new
// ringEnd splits them — one inside the new window, one beyond. The inside
// one must be dealt back into the ring, or a later-scheduled ring entry
// with a later deadline fires first (the bug surfaced as a demo2 client
// crawling through retransmission backoff for 500+ virtual seconds).
func TestCalendarRewindKeepsOverflowOrdered(t *testing.T) {
	s := NewWithConfig(Config{Scheduler: SchedulerCalendar})
	var got []string
	// Two sparse far events: at re-anchor the fitted width is clamped to
	// calMaxWidth, giving the ring a ~10.7s span that covers both.
	s.Schedule(100*time.Second, func() { got = append(got, "far1") })
	s.Schedule(110*time.Second, func() { got = append(got, "far2") })
	// Stop short of both: the Peek re-anchors the ring at t=100s.
	if err := s.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 95s precedes curStart: rewind. The spilled far1 (100s) is inside
	// the new [95s, ~105.7s) window and must come back into the ring;
	// far2 (110s) is beyond it and legitimately stays in overflow.
	s.Schedule(5*time.Second, func() { got = append(got, "early") })
	// A ring entry later than far1 (102s) but inside the window: with the
	// stranding bug it fired first.
	s.Schedule(12*time.Second, func() { got = append(got, "mid") })
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	want := []string{"early", "far1", "mid", "far2"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestCalendarCompaction checks that mass cancellation triggers
// compaction and leaves survivors firing in order.
func TestCalendarCompaction(t *testing.T) {
	s := NewWithConfig(Config{Scheduler: SchedulerCalendar})
	var events []*Event
	var got []int
	for i := 0; i < 2000; i++ {
		i := i
		events = append(events, s.Schedule(time.Duration(i)*time.Microsecond, func() { got = append(got, i) }))
	}
	// Cancel all but every 100th: tombstones outnumber live 100:1, far
	// past the 4:1 compaction threshold.
	for i, ev := range events {
		if i%100 != 0 {
			s.Cancel(ev)
		}
	}
	if pending := s.Pending(); pending != 20 {
		t.Fatalf("Pending() = %d after mass cancel, want 20", pending)
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("fired %d events, want 20", len(got))
	}
	for i := range got {
		if got[i] != i*100 {
			t.Fatalf("event %d: fired id %d, want %d", i, got[i], i*100)
		}
	}
}

// steadyStateAllocs measures allocations per re-arm/fire cycle once the
// scheduler has reached steady state for a timer-heavy workload. Every
// firing also wakes the clock's software: one wake-up alone at its
// instant runs in place, every fourth firing adds a second, which queues
// both (the same-instant tail's two branches).
func steadyStateAllocs(t *testing.T, kind SchedulerKind) float64 {
	t.Helper()
	s := NewWithConfig(Config{Scheduler: kind})
	c := NewClock(s)
	const nTimers = 64
	timers := make([]*Timer, nTimers)
	period := 100 * time.Microsecond
	var fires, wakes uint64
	wake := func() { wakes++ }
	for i := range timers {
		i := i
		timers[i] = s.NewTimer(func() {
			fires++
			timers[i].Arm(period) // fired path: re-arm
			// cancelled path: the neighbour's pending arming is dropped
			// and immediately replaced.
			timers[(i+1)%nTimers].Arm(period + time.Duration(i))
			c.Post(0, wake)
			if i%4 == 0 {
				c.Post(0, wake)
			}
		})
		timers[i].Arm(time.Duration(i) * time.Microsecond)
	}
	// Warm up: grow buckets/heap/pools to their steady-state capacity.
	if err := s.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Run(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if queued := s.Fired() - fires; queued == 0 || queued == wakes {
		t.Fatalf("%d of %d wake-ups queued, want some run in place and some queued", queued, wakes)
	}
	return allocs
}

// TestHeapSteadyStateAllocs is the audit backing the //sttcp:allow
// hotpathalloc directives in heapq.go: once warm, the heap's re-arm/
// fire/cancel cycle, wake-ups run in place or queued alike, must not
// allocate.
func TestHeapSteadyStateAllocs(t *testing.T) {
	if allocs := steadyStateAllocs(t, SchedulerHeap); allocs != 0 {
		t.Fatalf("heap steady state allocates %v per run, want 0", allocs)
	}
}

// TestCalendarSteadyStateAllocs is the audit backing the //sttcp:allow
// hotpathalloc directives in calendar.go: once warm, the calendar's
// re-arm/fire/cancel cycle — including bucket advancement and
// re-anchoring — must not allocate.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	if allocs := steadyStateAllocs(t, SchedulerCalendar); allocs != 0 {
		t.Fatalf("calendar steady state allocates %v per run, want 0", allocs)
	}
}
