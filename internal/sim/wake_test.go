package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// popLog is the heap with every pop's (when, seq) key written down.
type popLog struct {
	Scheduler
	keys []string
}

func (p *popLog) Pop() *Event {
	e := p.Scheduler.Pop()
	if e != nil {
		when, seq := e.SchedKey()
		p.keys = append(p.keys, fmt.Sprintf("%d/%d", when, seq))
	}
	return e
}

// wakeRun is one run of a script, with what it noted (and when, under
// which causal context), the queue's pops and Fired. The script wakes its
// notes with wake: a zero-delay Clock.Post, or with plain set, the queued
// Simulator.Post every wake-up was before the same-instant tail.
type wakeRun struct {
	ran   []string
	pops  []string
	fired uint64
}

func runWakes(t *testing.T, plain bool, script func(s *Simulator, c *Clock, wake func(func()), note func(string) func())) wakeRun {
	t.Helper()
	q := &popLog{Scheduler: NewScheduler(SchedulerHeap)}
	s := NewWithConfig(Config{Custom: q})
	c := NewClock(s)
	var r wakeRun
	note := func(what string) func() {
		return func() { r.ran = append(r.ran, fmt.Sprintf("%s@%v/%d", what, s.Elapsed(), s.Context())) }
	}
	wake := func(fn func()) {
		if plain {
			s.Post(0, fn)
		} else {
			c.Post(0, fn)
		}
	}
	script(s, c, wake, note)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r.pops, r.fired = q.keys, s.Fired()
	return r
}

// TestWakeUpAloneRunsInPlace: a wake-up with nothing else due at its
// instant runs before the next event, under its poster's causal context,
// and the queue never sees it.
func TestWakeUpAloneRunsInPlace(t *testing.T) {
	script := func(s *Simulator, c *Clock, wake func(func()), note func(string) func()) {
		s.Schedule(time.Millisecond, func() {
			note("a")()
			s.SetContext(7)
			wake(note("w"))
		})
		s.Schedule(2*time.Millisecond, note("b"))
	}
	got, plain := runWakes(t, false, script), runWakes(t, true, script)
	if want := []string{"a@1ms/0", "w@1ms/7", "b@2ms/0"}; !slices.Equal(got.ran, want) || !slices.Equal(plain.ran, want) {
		t.Fatalf("ran %v (as a queued post %v), want %v", got.ran, plain.ran, want)
	}
	if got.fired != 2 || plain.fired != 3 {
		t.Fatalf("Fired %d (as a queued post %d), want 2 (3): a wake-up run in place is no event", got.fired, plain.fired)
	}
}

// TestWakeUpBesideADueEventQueues: with anything else due at its instant
// — an event already queued, one scheduled after it, a daemon tick, a
// second wake-up — a wake-up is queued under the sequence number it
// reserved, so the queue pops the very keys it popped when every wake-up
// was a queued post, less those that had their instant to themselves.
func TestWakeUpBesideADueEventQueues(t *testing.T) {
	for _, tc := range []struct {
		name    string
		script  func(s *Simulator, c *Clock, wake func(func()), note func(string) func())
		inPlace []string // keys of the queued posts that run in place
	}{
		{"an event queued before", func(s *Simulator, c *Clock, wake func(func()), note func(string) func()) {
			s.Schedule(time.Millisecond, func() { note("a")(); wake(note("w")) })
			s.Schedule(time.Millisecond, note("b"))
		}, nil},
		{"an event scheduled after", func(s *Simulator, c *Clock, wake func(func()), note func(string) func()) {
			s.Schedule(time.Millisecond, func() { note("a")(); wake(note("w")); s.Schedule(0, note("x")) })
		}, nil},
		{"a daemon tick", func(s *Simulator, c *Clock, wake func(func()), note func(string) func()) {
			s.Schedule(time.Millisecond, func() { note("a")(); wake(note("w")) })
			NewDaemonTicker(s, time.Millisecond, note("tick"))
			s.Schedule(3*time.Millisecond, note("end"))
		}, nil},
		{"a second wake-up", func(s *Simulator, c *Clock, wake func(func()), note func(string) func()) {
			s.Schedule(time.Millisecond, func() { note("a")(); wake(note("w1")); wake(note("w2")) })
		}, nil},
		{"a wake-up run in place that wakes two", func(s *Simulator, c *Clock, wake func(func()), note func(string) func()) {
			s.Schedule(time.Millisecond, func() {
				note("a")()
				wake(func() { note("w")(); wake(note("w1")); wake(note("w2")) })
			})
		}, []string{"1000000/1"}},
	} {
		got, plain := runWakes(t, false, tc.script), runWakes(t, true, tc.script)
		want := slices.DeleteFunc(plain.pops, func(k string) bool { return slices.Contains(tc.inPlace, k) })
		if !slices.Equal(got.ran, plain.ran) || !slices.Equal(got.pops, want) {
			t.Errorf("%s: ran %v popping %v, queued posts ran %v popping %v", tc.name, got.ran, got.pops, plain.ran, want)
		}
		if got.fired+uint64(len(tc.inPlace)) != plain.fired {
			t.Errorf("%s: Fired %d, queued posts %d, want %d run in place", tc.name, got.fired, plain.fired, len(tc.inPlace))
		}
	}
}

// TestClockStopDropsAParkedWakeUp: a crash inside the instant drops the
// dead clock's wake-up and leaves another clock's to run in place.
func TestClockStopDropsAParkedWakeUp(t *testing.T) {
	s := New(1)
	dead, live := NewClock(s), NewClock(s)
	var ran []string
	s.Schedule(time.Millisecond, func() {
		dead.Post(0, func() { ran = append(ran, "dead") })
		dead.Stop()
		live.Post(0, func() {
			ran = append(ran, "live")
			live.Post(0, func() { ran = append(ran, "never") })
			live.Stop()
		})
	})
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ran, []string{"live"}) || s.Fired() != 1 || s.Pending() != 0 || s.wake.fn != nil {
		t.Fatalf("ran %v, Fired %d, %d pending, want [live], 1 and 0", ran, s.Fired(), s.Pending())
	}
}

// TestStopQueuesTheParkedWakeUp: Stop ends the run after the current
// callback; its wake-up waits in the queue for the next Run, which pops
// it, while one parked without a Stop runs in place.
func TestStopQueuesTheParkedWakeUp(t *testing.T) {
	s := New(1)
	c := NewClock(s)
	woken := 0
	wake := func() { woken++ }
	s.Schedule(time.Millisecond, func() { c.Post(0, wake); s.Stop() })
	if err := s.Run(time.Second); !errors.Is(err, ErrStopped) {
		t.Fatalf("run: %v, want ErrStopped", err)
	}
	if woken != 0 || s.Pending() != 1 {
		t.Fatalf("after Stop: woken %d times, %d pending, want 0 and 1", woken, s.Pending())
	}
	s.Schedule(time.Millisecond, func() { c.Post(0, wake) })
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if woken != 2 || s.Fired() != 3 {
		t.Fatalf("woken %d times in %d events, want 2 in 3 (the stopped run's wake-up queued, the next one in place)", woken, s.Fired())
	}
}

// TestEveryLoopSettlesTheTail: RunUntilIdle and Step run a lone wake-up
// in place as RunUntil does.
func TestEveryLoopSettlesTheTail(t *testing.T) {
	s := New(1)
	c := NewClock(s)
	woken := 0
	wake := func() { woken++ }
	s.Schedule(time.Millisecond, func() { c.Post(0, wake) })
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if woken != 1 || s.Fired() != 1 {
		t.Fatalf("RunUntilIdle: woken %d times in %d events, want 1 in 1", woken, s.Fired())
	}
	s.Schedule(time.Millisecond, func() { c.Post(0, wake) })
	if !s.Step() || woken != 2 || s.Fired() != 2 || s.Pending() != 0 {
		t.Fatalf("Step: woken %d times in %d events, %d pending, want 2 in 2 and 0", woken, s.Fired(), s.Pending())
	}
}
