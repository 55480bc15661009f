package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// armedCount walks the clock's list of armed timers.
func armedCount(c *Clock) int {
	n := 0
	for e := c.armed.next; e != &c.armed; e = e.next {
		n++
	}
	return n
}

func TestNilClockIsNominal(t *testing.T) {
	var c *Clock
	if c.Rate() != 1 || c.Stretch(time.Second) != time.Second {
		t.Fatalf("nil clock: rate %v, stretch %v", c.Rate(), c.Stretch(time.Second))
	}
}

func TestClockStopCancelsItsTimersAndTickers(t *testing.T) {
	s := New(1)
	c := NewClock(s)
	var fired []string
	note := func(what string) func() { return func() { fired = append(fired, what) } }
	early := c.AfterFunc(time.Second, note("early"))
	c.AfterFunc(3*time.Second, note("late"))
	c.NewTicker(time.Second, note("tick"))
	c.Post(3*time.Second, note("post"))
	s.NewTimer(note("raw")).Arm(3 * time.Second)
	s.Schedule(2*time.Second, c.Stop)

	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The tick due at 2 s was re-armed after Stop was scheduled, so Stop
	// comes first and cancels it.
	if want := []string{"early", "tick", "raw"}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if !c.stopped || s.Pending() != 0 {
		t.Fatalf("stopped %v, %d events pending", c.stopped, s.Pending())
	}
	// A fired timer left the clock's list at once, and Stop emptied it:
	// the clock keeps nothing reachable.
	if n := armedCount(c); n != 0 || early.ev.next != nil {
		t.Fatalf("%d timers still listed on the stopped clock", n)
	}
}

func TestClockPostDoesNotAllocate(t *testing.T) {
	s := New(1)
	c := NewClock(s)
	fn := func() {}
	c.Post(0, fn)
	s.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Post(time.Millisecond, fn)
		s.Step()
	})
	if allocs != 0 || armedCount(c) != 0 {
		t.Fatalf("Post+fire allocates %v times per cycle and leaves %d listed, want 0 and 0", allocs, armedCount(c))
	}
}

func TestClockListsOnlyArmedTimers(t *testing.T) {
	s := New(1)
	c := NewClock(s)
	a, b := c.NewTimer(func() {}), c.NewTimer(func() {})
	a.Arm(time.Second)
	b.Arm(2 * time.Second)
	a.Arm(3 * time.Second) // a re-arm is listed once
	if n := armedCount(c); n != 2 {
		t.Fatalf("%d timers listed, want 2", n)
	}
	b.Stop()
	if n := armedCount(c); n != 1 {
		t.Fatalf("%d timers listed after a Stop, want 1", n)
	}
	_ = s.Run(10 * time.Second)
	if n := armedCount(c); n != 0 {
		t.Fatalf("%d timers listed after they fired, want 0", n)
	}
}

func TestArmAfterClockStopPanics(t *testing.T) {
	s := New(1)
	c := NewClock(s)
	tm := c.NewTimer(func() {})
	tm.Arm(time.Second)
	c.Stop()
	c.Stop() // idempotent
	tm.Stop()
	var nilTimer *Timer
	nilTimer.Stop()
	for _, tc := range []struct {
		name   string
		arm    func()
		panics bool
	}{
		{"Timer.Arm", func() { tm.Arm(time.Second) }, true},
		{"AfterFunc", func() { c.AfterFunc(time.Second, func() {}) }, true},
		{"NewTicker", func() { c.NewTicker(time.Second, func() {}) }, true},
		{"Post", func() { c.Post(time.Second, func() {}) }, true},
		{"a raw timer's Arm", func() { s.NewTimer(func() {}).Arm(time.Second) }, false},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if tc.panics != errors.Is(err, errStoppedClock) || !tc.panics && err != nil {
					t.Errorf("%s after Stop: recovered %v", tc.name, err)
				}
			}()
			tc.arm()
		}()
	}
}

// TestClockStopKeepsTheOrderOfTheRest runs one schedule of raw events —
// ties included — twice: once beside clock timers that Stop cancels, once
// with those timers never armed. The survivors fire in the same order.
func TestClockStopKeepsTheOrderOfTheRest(t *testing.T) {
	run := func(withClock bool) []string {
		s := New(1)
		c := NewClock(s)
		var fired []string
		for i := range 12 {
			at := time.Duration(i%4) * time.Second
			s.Schedule(at, func() { fired = append(fired, fmt.Sprintf("raw%d@%v", i, at)) })
			if withClock {
				c.AfterFunc(at+time.Second, func() { fired = append(fired, "clock") })
				c.NewTicker(at+500*time.Millisecond, func() { fired = append(fired, "tick") })
			}
		}
		s.Schedule(0, c.Stop)
		if err := s.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	if with, without := run(true), run(false); !slices.Equal(with, without) {
		t.Fatalf("with cancelled clock timers:\n%v\nnever armed:\n%v", with, without)
	}
}
