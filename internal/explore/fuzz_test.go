package explore

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// planOut is everything one synthetic run under the wrapper produced.
type planOut struct {
	order     []int   // event IDs in fire order
	atNS      []int64 // fire times, parallel to order
	choices   []Choice
	orderErrs []string
}

// runPlan drives a forking wrapper (or, with bare=true, an undecorated
// queue) through the event plan encoded in ops: each byte pair schedules
// a fan of 1–4 events at a shared delay, so same-timestamp tie groups are
// the common case, and the callbacks re-schedule follow-ups and cancel
// victims mid-run to exercise the wrapper's undecide and cancel paths.
// IDs are assigned deterministically from the plan, never from fire
// order, so two runs are comparable element-wise.
func runPlan(kind sim.SchedulerKind, bare bool, ops []byte, forced []int) planOut {
	var sched *Scheduler
	cfg := sim.Config{Seed: 1, Scheduler: kind}
	if !bare {
		sched = NewScheduler(sim.NewScheduler(kind), forced)
		cfg.Custom = sched
	}
	s := sim.NewWithConfig(cfg)

	var out planOut
	var evs []*sim.Event
	fired := map[int]bool{}
	cancelled := map[int]bool{}

	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			fired[id] = true
			out.order = append(out.order, id)
			out.atNS = append(out.atNS, int64(s.Elapsed()))
			if id < len(evs) {
				// Follow-ups land 0–2 ms out, often tying with pending
				// events (or with the decided head — the undecide path).
				if id%4 == 1 {
					s.Schedule(time.Duration(id%3)*time.Millisecond, fire(1000+id))
				}
				// Cancel a deterministic victim if it is still pending.
				if id%3 == 0 && len(evs) > 0 {
					v := (id * 7) % len(evs)
					if !fired[v] && !cancelled[v] {
						s.Cancel(evs[v])
						cancelled[v] = true
					}
				}
			}
		}
	}

	id := 0
	for i := 0; i+1 < len(ops); i += 2 {
		delay := time.Duration(ops[i]%50) * time.Millisecond
		fan := 1 + int(ops[i+1]%4)
		for k := 0; k < fan; k++ {
			evs = append(evs, s.Schedule(delay, fire(id)))
			id++
		}
	}
	if err := s.RunUntilIdle(100_000); err != nil {
		panic(err)
	}
	if sched != nil {
		out.choices = sched.Choices()
		out.orderErrs = sched.OrderViolations()
	}

	// Conservation: every planned event either fired or was cancelled
	// before firing, never both, never neither.
	for i := 0; i < id; i++ {
		if fired[i] == cancelled[i] {
			panic("event neither fired nor cancelled, or both")
		}
	}
	return out
}

// FuzzExploreChoices feeds the forking wrapper random event plans and
// random choice sequences and holds it to its contract: time never goes
// backward, every recorded choice is well-formed, replaying the recorded
// picks reproduces the run exactly, the same forced sequence yields the
// same order over either inner queue, and with no forced choices the
// wrapper is invisible next to the bare scheduler.
func FuzzExploreChoices(f *testing.F) {
	f.Add([]byte{10, 3, 10, 3, 20, 2, 0, 1}, []byte{1, 0, 2})
	f.Add([]byte{5, 4, 5, 4, 5, 4, 5, 4, 30, 1}, []byte{3, 3, 3, 3, 3, 3})
	f.Add([]byte{0, 4, 0, 4}, []byte{})
	f.Add([]byte{49, 2, 49, 2, 49, 2, 7, 1, 7, 3}, []byte{255, 128, 7, 0, 9})

	f.Fuzz(func(t *testing.T, ops []byte, prefix []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		if len(prefix) > 64 {
			prefix = prefix[:64]
		}
		forced := make([]int, len(prefix))
		for i, b := range prefix {
			forced[i] = int(int8(b)) // negatives included: the wrapper must normalise
		}

		got := runPlan(sim.SchedulerHeap, false, ops, forced)

		if len(got.orderErrs) != 0 {
			t.Fatalf("virtual time went backward: %v", got.orderErrs)
		}
		for i := 1; i < len(got.atNS); i++ {
			if got.atNS[i] < got.atNS[i-1] {
				t.Fatalf("fire %d at t=%d after t=%d", i, got.atNS[i], got.atNS[i-1])
			}
		}
		picks := make([]int, len(got.choices))
		for i, c := range got.choices {
			if c.N < 2 || c.Picked < 0 || c.Picked >= c.N {
				t.Fatalf("malformed choice %d: %+v", i, c)
			}
			picks[i] = c.Picked
		}

		// Replaying the recorded picks reproduces the run bit for bit.
		replay := runPlan(sim.SchedulerHeap, false, ops, picks)
		if !reflect.DeepEqual(replay.order, got.order) {
			t.Fatalf("replay diverged:\n  got:    %v\n  replay: %v", got.order, replay.order)
		}
		if !reflect.DeepEqual(replay.choices, got.choices) {
			t.Fatalf("replay recorded different choices")
		}

		// The forced order is a property of the choices, not the inner
		// queue implementation.
		cal := runPlan(sim.SchedulerCalendar, false, ops, forced)
		if !reflect.DeepEqual(cal.order, got.order) {
			t.Fatalf("inner queues diverged under the same forced sequence:\n  heap:     %v\n  calendar: %v", got.order, cal.order)
		}

		// With nothing forced the wrapper is invisible.
		wrapped := runPlan(sim.SchedulerHeap, false, ops, nil)
		bareRun := runPlan(sim.SchedulerHeap, true, ops, nil)
		if !reflect.DeepEqual(wrapped.order, bareRun.order) {
			t.Fatalf("empty-prefix wrapper diverged from bare queue:\n  wrapped: %v\n  bare:    %v", wrapped.order, bareRun.order)
		}
	})
}
