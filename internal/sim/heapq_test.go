package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

func keyOf(e *Event) string {
	if e == nil {
		return "nil"
	}
	return fmt.Sprintf("(when %d, seq %d)", e.when, e.seq)
}

// heapModel drives a heapScheduler and a sorted-slice reference through the
// same history and holds the heap to its contract after every step.
type heapModel struct {
	t    testing.TB
	h    *heapScheduler
	ref  []*Event         // queued events, sorted by (when, seq)
	gone []*Event         // cancelled or popped, not queued again since
	lead map[*Event]int64 // how far past the last pop each queued event was due when it was scheduled
	now  int64            // the clock: the last pop, or later where a RunUntil parked it
	last int64            // the instant of the last pop
	seq  uint64
}

func newHeapModel(t testing.TB) *heapModel {
	return &heapModel{t: t, h: newHeapScheduler(), lead: make(map[*Event]int64)}
}

func (m *heapModel) schedule(e *Event, when int64) {
	e.when, e.seq = when, m.seq
	m.seq++
	m.insert(e)
}

// insert queues e under the key it already carries.
func (m *heapModel) insert(e *Event) {
	m.h.Schedule(e)
	m.lead[e] = e.when - m.last
	i := sort.Search(len(m.ref), func(i int) bool {
		r := m.ref[i]
		return r.when > e.when || r.when == e.when && r.seq > e.seq
	})
	m.ref = append(m.ref, nil)
	copy(m.ref[i+1:], m.ref[i:])
	m.ref[i] = e
	for j, g := range m.gone {
		if g == e {
			m.gone = append(m.gone[:j], m.gone[j+1:]...)
			break
		}
	}
}

func (m *heapModel) cancel(e *Event) {
	m.h.Cancel(e)
	for i, r := range m.ref {
		if r == e {
			m.ref = append(m.ref[:i], m.ref[i+1:]...)
			m.gone = append(m.gone, e)
			delete(m.lead, e)
			break
		}
	}
}

func (m *heapModel) pop() *Event {
	var want *Event
	if len(m.ref) > 0 {
		want = m.ref[0]
		m.ref = m.ref[1:]
	}
	if peek := m.h.Peek(); peek != want {
		m.t.Fatalf("Peek = %s, reference says %s", keyOf(peek), keyOf(want))
	}
	e := m.h.Pop()
	if e != want {
		m.t.Fatalf("Pop = %s, reference says %s", keyOf(e), keyOf(want))
	}
	if e == nil {
		return nil
	}
	m.gone = append(m.gone, e)
	delete(m.lead, e)
	m.last, m.now = e.when, max(m.now, e.when)
	return e
}

// far reports whether e sits in the far heap.
func (m *heapModel) far(e *Event) bool { return e.heapPos < 0 }

// check states the contract: the two heaps together hold exactly the live
// events, each in the half nearSpan chose when it was scheduled and where
// its heapPos says, in heap order, and nothing else is reachable from
// either backing array.
func (m *heapModel) check(step int) {
	if n := len(m.h.near.q) + len(m.h.far.q); n != len(m.ref) || m.h.Len() != len(m.ref) {
		m.t.Fatalf("step %d: the heaps hold %d, Len() = %d, reference holds %d", step, n, m.h.Len(), len(m.ref))
	}
	for _, half := range []*indexedHeap{&m.h.near, &m.h.far} {
		q := half.q
		for i, en := range q {
			if en.ev.heapPos != half.sign*(i+1) {
				m.t.Fatalf("step %d: entry %d of heap %+d holds seq %d, whose heapPos says %d", step, i, half.sign, en.ev.seq, en.ev.heapPos)
			}
			if lead := m.lead[en.ev]; (lead >= nearSpan) != (half.sign < 0) {
				m.t.Fatalf("step %d: seq %d, due %d ns past the last pop when scheduled, sits in heap %+d", step, en.ev.seq, lead, half.sign)
			}
			if en.when != en.ev.when || en.seq != en.ev.seq {
				m.t.Fatalf("step %d: entry %d keyed (%d, %d), its event (%d, %d)", step, i, en.when, en.seq, en.ev.when, en.ev.seq)
			}
			if i > 0 && en.less(q[(i-1)/heapArity]) {
				m.t.Fatalf("step %d: entry %d of heap %+d sorts before its parent", step, i, half.sign)
			}
		}
		for i, en := range q[len(q):cap(q)] {
			if en != (heapEntry{}) {
				m.t.Fatalf("step %d: slot %d of heap %+d past the end still holds seq %d", step, len(q)+i, half.sign, en.seq)
			}
		}
	}
	for _, e := range m.gone {
		if e.heapPos != 0 {
			m.t.Fatalf("step %d: seq %d left the queue with heapPos %d", step, e.seq, e.heapPos)
		}
	}
}

// runHeapOps decodes data two bytes an operation and replays it:
//   - 0, 1: schedule near (ties are common, so the seq tie-break carries
//     weight);
//   - 2: schedule at the instant of a queued event, which may sit in the
//     other half (a tie across the heaps), or within 64 ns of the span's
//     edge, either side;
//   - 3: cancel a queued event or one that is not;
//   - 4: push a queued event back or pull it in, anywhere in two spans, the
//     way Timer.Arm does (an RTO on every ACK), so it may change halves;
//   - 5, 6: pop;
//   - 7: pop a whole tie group and hand all but its first back under their
//     old keys with no Cancel in between — what explore.Scheduler does with
//     the rest of a group and RunUntilIdle at its cap;
//   - 8: park the clock up to four spans past the last pop, as RunUntil
//     does at its deadline, so what is scheduled next may be due soon
//     yet land in the far heap;
//   - 9: schedule a far timer, tens of spans out.
func runHeapOps(t testing.TB, data []byte) {
	m := newHeapModel(t)
	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step]%10, int64(data[step+1])
		switch {
		case op <= 1:
			m.schedule(&Event{}, m.now+arg%8)
		case op == 2 && arg < 128 && len(m.ref) > 0:
			m.schedule(&Event{}, m.ref[int(arg)%len(m.ref)].when)
		case op == 2:
			m.schedule(&Event{}, max(m.now, m.last+nearSpan-192+arg))
		case op == 3 && arg >= 192:
			if len(m.gone) > 0 {
				m.cancel(m.gone[int(arg)%len(m.gone)])
			} else {
				m.cancel(&Event{})
			}
		case op == 3:
			if len(m.ref) > 0 {
				m.cancel(m.ref[int(arg)%len(m.ref)])
			}
		case op == 4:
			if len(m.ref) > 0 {
				e := m.ref[int(arg)%len(m.ref)]
				m.cancel(e)
				m.schedule(e, m.now+arg*nearSpan/128)
			}
		case op <= 6:
			m.pop()
		case op == 7:
			first := m.pop()
			var rest []*Event
			for first != nil && len(m.ref) > 0 && m.ref[0].when == first.when {
				rest = append(rest, m.pop())
			}
			for _, e := range rest {
				m.insert(e)
			}
		case op == 8:
			m.now = max(m.now, m.last+arg*nearSpan/64)
		default:
			m.schedule(&Event{}, m.now+(16+arg)*nearSpan)
		}
		m.check(step / 2)
	}
	for len(m.ref) > 0 {
		m.pop()
	}
	m.check(len(data) / 2)
}

// TestHeapContract replays random histories whose mix leans toward
// scheduling and toward popping in turn, 500 operations at a time, so the
// heaps grow a few levels deep, drain and regrow.
func TestHeapContract(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		data := make([]byte, 8000)
		NewRand(seed).Read(data)
		for i := 0; i < len(data); i += 2 {
			if data[i] >= 128 {
				data[i] = []byte{0, 5}[i/1000%2]
			}
		}
		runHeapOps(t, data)
	}
}

// TestHeapHalves walks an event through each way of entering and leaving
// either heap, and checks the half it sits in as well as the contract.
func TestHeapHalves(t *testing.T) {
	m := newHeapModel(t)
	half := func(e *Event, far bool) {
		t.Helper()
		m.check(0)
		if m.far(e) != far {
			t.Fatalf("seq %d due at %d (last pop %d): far = %v, want %v", e.seq, e.when, m.last, m.far(e), far)
		}
	}
	tied, step := &Event{}, &Event{}
	m.schedule(tied, nearSpan+10)
	m.schedule(step, nearSpan/2)
	half(tied, true)
	half(step, false)

	// Once the clock nears it, an event due at the far one's instant goes
	// near; the two tie, and the far one, scheduled first, pops first.
	m.pop()
	twin := &Event{}
	m.schedule(twin, tied.when)
	half(twin, false)
	if m.pop() != tied || m.pop() != twin {
		t.Fatal("a tie across the heaps did not pop in seq order")
	}

	// Timer.Arm is a Cancel and a Schedule: from near to far and back.
	e := &Event{}
	m.schedule(e, m.now+1)
	half(e, false)
	m.cancel(e)
	m.schedule(e, m.now+10*nearSpan)
	half(e, true)
	m.cancel(e)
	m.schedule(e, m.now+1)
	half(e, false)

	// Cancel from each half.
	f := &Event{}
	m.schedule(f, m.now+3*nearSpan)
	half(f, true)
	m.cancel(f)
	m.cancel(e)
	m.check(0)

	// A RunUntil that parks the clock past the last pop: what is due soon
	// after the parked clock lands far of the last pop until a pop moves it.
	m.now = m.last + 5*nearSpan
	a, b := &Event{}, &Event{}
	m.schedule(a, m.now+1)
	m.schedule(b, m.now+2)
	half(a, true)
	if m.pop() != a {
		t.Fatal("the parked clock's first event did not pop first")
	}
	c := &Event{}
	m.schedule(c, m.now+1)
	half(c, false)
	if m.pop() != b || m.pop() != c || m.pop() != nil {
		t.Fatal("the parked clock's events did not pop in order")
	}
	m.check(1)
}

// TestHeapHalvesOnTheSimulator: a Timer re-armed across the span moves
// between the heaps, and after RunUntil parks the clock a timer armed
// near it still fires at its instant.
func TestHeapHalvesOnTheSimulator(t *testing.T) {
	s := New(1)
	var fired []int64
	tm := s.NewTimer(func() { fired = append(fired, int64(s.Elapsed())) })
	for _, c := range []struct {
		d   time.Duration
		far bool
	}{{time.Millisecond, false}, {time.Second, true}, {time.Millisecond, false}} {
		tm.Arm(c.d)
		if got := tm.ev.heapPos < 0; got != c.far {
			t.Fatalf("armed %v: in the far heap = %v, want %v", c.d, got, c.far)
		}
	}
	if err := s.RunUntil(Epoch.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	tm.Arm(time.Millisecond)
	if tm.ev.heapPos >= 0 {
		t.Fatal("armed 1 ms past a clock parked 999 ms past the last pop: want the far heap")
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if want := []int64{int64(time.Millisecond), int64(time.Second + time.Millisecond)}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestHeapCancelOfUnqueuedEventIsNoOp: the three ways an event can be out
// of the queue — never scheduled, popped, already cancelled.
func TestHeapCancelOfUnqueuedEventIsNoOp(t *testing.T) {
	m := newHeapModel(t)
	events := make([]*Event, 9)
	for i := range events {
		events[i] = &Event{}
		m.schedule(events[i], int64(i%3))
	}
	popped := m.pop()
	m.cancel(events[4])
	for _, e := range []*Event{{}, popped, events[4]} {
		m.cancel(e)
		m.check(0)
	}
	for len(m.ref) > 0 {
		m.pop()
	}
}

// FuzzHeapOps holds the two heaps to the sorted-slice reference on
// whatever history the fuzzer decodes (`make fuzz-heap` runs it for 20 s).
func FuzzHeapOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 7, 0, 5, 0, 5, 0, 5, 0}) // a tie group popped and handed back
	f.Add([]byte{9, 9, 0, 3, 4, 200, 4, 10, 3, 200, 5, 0})  // a timer pulled near and pushed far, a no-op cancel
	f.Add([]byte{9, 0, 8, 255, 0, 1, 2, 0, 5, 0, 5, 0})     // a clock parked past the last pop, a tie across the heaps
	long := make([]byte, 600)
	NewRand(1).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) { runHeapOps(t, data) })
}
