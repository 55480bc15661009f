package sim

import (
	"errors"
	"testing"
	"time"
)

func TestTimerFiresOnce(t *testing.T) {
	s := New(1)
	var fired int
	tm := s.NewTimer(func() { fired++ })
	tm.Arm(100 * time.Millisecond)
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Armed() {
		t.Fatal("timer should not be armed after firing")
	}
}

func TestTimerRearmReplacesPending(t *testing.T) {
	s := New(1)
	var at []time.Duration
	tm := s.NewTimer(func() { at = append(at, s.Elapsed()) })
	tm.Arm(100 * time.Millisecond)
	tm.Arm(300 * time.Millisecond) // replaces the 100ms arming
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(at) != 1 || at[0] != 300*time.Millisecond {
		t.Fatalf("fire times = %v, want [300ms]", at)
	}
}

func TestTimerRearmAfterFire(t *testing.T) {
	s := New(1)
	var fired int
	var tm *Timer
	tm = s.NewTimer(func() {
		fired++
		if fired < 3 {
			tm.Arm(10 * time.Millisecond)
		}
	})
	tm.Arm(10 * time.Millisecond)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	var fired int
	tm := s.NewTimer(func() { fired++ })
	tm.Arm(100 * time.Millisecond)
	tm.Stop()
	if tm.Armed() {
		t.Fatal("timer should not be armed after Stop")
	}
	tm.Stop() // idempotent
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("fired = %d, want 0", fired)
	}
	// A stopped timer can be re-armed.
	tm.Arm(50 * time.Millisecond)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d after re-arm, want 1", fired)
	}
}

func TestTimerOrderingMatchesScheduleFIFO(t *testing.T) {
	// A timer armed after a Schedule at the same instant fires after it, and
	// re-arming refreshes the sequence number, so FIFO order is preserved.
	s := New(1)
	var order []string
	tm := s.NewTimer(func() { order = append(order, "timer") })
	tm.Arm(time.Millisecond)
	s.Schedule(time.Millisecond, func() { order = append(order, "sched") })
	tm.Arm(time.Millisecond) // re-arm moves the timer behind the Schedule
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "sched" || order[1] != "timer" {
		t.Fatalf("order = %v, want [sched timer]", order)
	}
}

func TestTimerCapturesContextAtArm(t *testing.T) {
	s := New(1)
	var seen uint64
	tm := s.NewTimer(func() { seen = s.Context() })
	s.SetContext(7)
	tm.Arm(time.Millisecond)
	s.SetContext(0)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Fatalf("context inside callback = %d, want 7", seen)
	}
}

func TestTimerArmDoesNotAllocate(t *testing.T) {
	s := New(1)
	var owner struct{ tm Timer }
	NewClock(s).InitTimer(&owner.tm, func() {})
	for _, tm := range []*Timer{s.NewTimer(func() {}), NewClock(s).NewTimer(func() {}), &owner.tm} {
		tm.Arm(time.Millisecond)
		if err := s.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			tm.Arm(time.Millisecond)
			tm.Arm(2 * time.Millisecond) // re-arming an armed timer
			s.Step()
		})
		if allocs != 0 {
			t.Fatalf("Arm+fire allocates %v times per cycle (clock-owned: %v), want 0", allocs, tm.clock != nil)
		}
	}
}

func TestPostRunsInOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.Post(2*time.Millisecond, func() { order = append(order, 2) })
	s.Post(time.Millisecond, func() { order = append(order, 1) })
	s.Post(2*time.Millisecond, func() { order = append(order, 3) })
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestPostRecyclesEvents(t *testing.T) {
	s := New(1)
	// Prime the pool: one pooled event fires and is recycled.
	s.Post(0, func() {})
	s.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Post(0, func() {})
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("Post+fire allocates %v times per cycle, want 0", allocs)
	}
}

func TestPostFromWithinPost(t *testing.T) {
	// A Post callback may immediately Post again; the recycled event is safe
	// to reuse inside the callback that just fired from it.
	s := New(1)
	var fired int
	var chain func()
	chain = func() {
		fired++
		if fired < 5 {
			s.Post(time.Millisecond, chain)
		}
	}
	s.Post(time.Millisecond, chain)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
}

func TestPostDeterministicAgainstSchedule(t *testing.T) {
	// Interleaved Post and Schedule at equal timestamps keep global FIFO
	// order: both draw seq from the same counter.
	s := New(1)
	var order []int
	s.Post(time.Millisecond, func() { order = append(order, 0) })
	s.Schedule(time.Millisecond, func() { order = append(order, 1) })
	s.Post(time.Millisecond, func() { order = append(order, 2) })
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("order = %v, want [0 1 2]", order)
		}
	}
}

func TestTickerDoesNotAllocatePerTick(t *testing.T) {
	s := New(1)
	tk := NewTicker(s, time.Millisecond, func() {})
	s.Run(10 * time.Millisecond) // settle
	allocs := testing.AllocsPerRun(1000, func() {
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("ticker allocates %v times per tick, want 0", allocs)
	}
	tk.Stop()
}

// TestEmbeddedTimer runs a timer that lives inside its owner, as a
// tcp.Conn's do: it fires like a new one, its clock's Stop cancels it, and
// arming it after the Stop panics.
func TestEmbeddedTimer(t *testing.T) {
	s := New(1)
	c := NewClock(s)
	var owner struct {
		fired int
		tm    Timer
	}
	c.InitTimer(&owner.tm, func() { owner.fired++ })
	owner.tm.Arm(time.Millisecond)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	owner.tm.Arm(time.Second)
	c.Stop()
	if owner.tm.Armed() || armedCount(c) != 0 {
		t.Fatalf("after Clock.Stop the timer is armed %v, %d listed; want cancelled", owner.tm.Armed(), armedCount(c))
	}
	if err := s.Run(time.Minute); err != nil || owner.fired != 1 {
		t.Fatalf("fired %d times (run: %v), want once: Stop cancels it", owner.fired, err)
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, errStoppedClock) {
			t.Fatalf("arming after Clock.Stop recovered %v, want %v", err, errStoppedClock)
		}
	}()
	owner.tm.Arm(time.Second)
}

// TestUninitialisedTimerPanics: a Timer field nobody passed to InitTimer
// says so when armed, rather than dereferencing a nil simulator.
func TestUninitialisedTimerPanics(t *testing.T) {
	var tm Timer
	tm.Stop() // a no-op, like stopping a nil timer
	defer func() {
		if r := recover(); r != errUninitTimer {
			t.Fatalf("arming a zero Timer recovered %v, want %q", r, errUninitTimer)
		}
	}()
	tm.Arm(time.Second)
}
