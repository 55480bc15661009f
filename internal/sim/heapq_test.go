package sim

import (
	"fmt"
	"sort"
	"testing"
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
	h    heapScheduler
	ref  []*Event // queued events, sorted by (when, seq)
	gone []*Event // cancelled or popped, not queued again since
	now  int64
	seq  uint64
}

func (m *heapModel) schedule(e *Event, when int64) {
	e.when, e.seq = when, m.seq
	m.seq++
	m.insert(e)
}

// insert queues e under the key it already carries.
func (m *heapModel) insert(e *Event) {
	m.h.Schedule(e)
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
	m.now = e.when
	return e
}

// check states the contract: the slice holds exactly the live events, each
// where its heapPos says, in heap order, and nothing else is reachable
// from the backing array.
func (m *heapModel) check(step int) {
	q := m.h.q
	if len(q) != len(m.ref) || m.h.Len() != len(m.ref) {
		m.t.Fatalf("step %d: len(q) = %d, Len() = %d, reference holds %d", step, len(q), m.h.Len(), len(m.ref))
	}
	for i, en := range q {
		if en.ev.heapPos != i+1 {
			m.t.Fatalf("step %d: entry %d holds seq %d, whose heapPos says %d", step, i, en.ev.seq, en.ev.heapPos-1)
		}
		if en.when != en.ev.when || en.seq != en.ev.seq {
			m.t.Fatalf("step %d: entry %d keyed (%d, %d), its event (%d, %d)", step, i, en.when, en.seq, en.ev.when, en.ev.seq)
		}
		if i > 0 && en.less(q[(i-1)/heapArity]) {
			m.t.Fatalf("step %d: entry %d sorts before its parent", step, i)
		}
	}
	for i, en := range q[len(q):cap(q)] {
		if en != (heapEntry{}) {
			m.t.Fatalf("step %d: slot %d past the end still holds seq %d", step, len(q)+i, en.seq)
		}
	}
	for _, e := range m.gone {
		if e.heapPos != 0 {
			m.t.Fatalf("step %d: seq %d left the queue with heapPos %d", step, e.seq, e.heapPos)
		}
	}
}

// runHeapOps decodes data two bytes an operation and replays it: schedule
// near (ties are common, so the seq tie-break carries weight) or far,
// cancel a queued event or one that is not, push a queued event back the
// way an RTO is on every ACK, pop, and pop a whole tie group handing all
// but its first back under their old keys with no Cancel in between — what
// explore.Scheduler does with the rest of a group and RunUntilIdle at its
// cap.
func runHeapOps(t testing.TB, data []byte) {
	m := &heapModel{t: t}
	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step]%8, int64(data[step+1])
		switch {
		case op <= 1:
			m.schedule(&Event{}, m.now+arg%8)
		case op == 2:
			m.schedule(&Event{}, m.now+1000+arg)
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
				m.schedule(e, m.now+1000+arg)
			}
		case op <= 6:
			m.pop()
		default:
			first := m.pop()
			var rest []*Event
			for first != nil && len(m.ref) > 0 && m.ref[0].when == first.when {
				rest = append(rest, m.pop())
			}
			for _, e := range rest {
				m.insert(e)
			}
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
// heap grows a few levels deep, drains and regrows.
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

// TestHeapCancelOfUnqueuedEventIsNoOp: the three ways an event can be out
// of the queue — never scheduled, popped, already cancelled.
func TestHeapCancelOfUnqueuedEventIsNoOp(t *testing.T) {
	m := &heapModel{t: t}
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

// FuzzHeapOps holds the heap to the sorted-slice reference on whatever
// history the fuzzer decodes.
func FuzzHeapOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 7, 0, 5, 0, 5, 0, 5, 0}) // a tie group popped and handed back
	f.Add([]byte{2, 9, 0, 3, 4, 0, 4, 0, 3, 200, 5, 0})     // a far timer pushed back twice, a no-op cancel
	long := make([]byte, 600)
	NewRand(1).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) { runHeapOps(t, data) })
}
