package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New(1)
	var at time.Time
	s.Schedule(250*time.Millisecond, func() { at = s.Now() })
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := at.Sub(Epoch); got != 250*time.Millisecond {
		t.Fatalf("event fired at %v after epoch, want 250ms", got)
	}
	if s.Now().Sub(Epoch) != time.Second {
		t.Fatalf("clock ended at %v after epoch, want 1s", s.Now().Sub(Epoch))
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(10*time.Millisecond, func() { fired = true })
	s.Cancel(e)
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.live {
		t.Fatal("cancelled event is still live")
	}
	s.Cancel(e) // double-cancel must be a no-op
	s.Cancel(nil)
}

func TestCancelFromWithinEvent(t *testing.T) {
	s := New(1)
	fired := false
	var e2 *Event
	e2 = s.Schedule(20*time.Millisecond, func() { fired = true })
	s.Schedule(10*time.Millisecond, func() { s.Cancel(e2) })
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

// TestNegativeDelayClamps: once the clock has advanced, a negative delay
// (Schedule, Post, Timer.Arm) and an At in the past all fire at the present.
func TestNegativeDelayClamps(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	note := func() { fired = append(fired, s.Elapsed()) }
	tm := s.NewTimer(note)
	s.Schedule(time.Second, func() {
		s.Schedule(-time.Hour, note)
		s.Post(-time.Hour, note)
		tm.Arm(-time.Hour)
		s.At(Epoch, note)
		s.At(Epoch.Add(-time.Hour), note)
	})
	if err := s.Run(time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(fired) != 5 {
		t.Fatalf("%d of 5 clamped events fired", len(fired))
	}
	for i, at := range fired {
		if at != time.Second {
			t.Errorf("clamped event %d fired at %v, want the present, 1s", i, at)
		}
	}
}

// TestHugeDelayNeverFiresEarly: a delay that runs past the end of
// representable time saturates there. Before Arm, Schedule and Post shared
// one saturating add, Arm computed nowNS + delay, which wraps negative once
// the clock has left zero, and the timer fired at once.
func TestHugeDelayNeverFiresEarly(t *testing.T) {
	s := New(1)
	var fired []string
	tm := s.NewTimer(func() { fired = append(fired, "timer") })
	s.Schedule(time.Second, func() {
		tm.Arm(math.MaxInt64)
		s.Schedule(math.MaxInt64, func() { fired = append(fired, "event") })
		s.Post(math.MaxInt64, func() { fired = append(fired, "post") })
	})
	if err := s.Run(time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(fired) != 0 {
		t.Fatalf("%v fired within the hour, armed for the end of time", fired)
	}
	if !tm.Armed() || s.Pending() != 3 {
		t.Fatalf("timer armed = %v, %d pending; want all three still waiting", tm.Armed(), s.Pending())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 5; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	err := s.Run(time.Second)
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Fatalf("fired %d events after stop, want 2", count)
	}
}

func TestRunUntilIdleCap(t *testing.T) {
	s := New(1)
	var loop func()
	loop = func() { s.Schedule(time.Millisecond, loop) }
	loop()
	if err := s.RunUntilIdle(100); err == nil {
		t.Fatal("runaway loop did not hit the event cap")
	}
}

func TestStep(t *testing.T) {
	s := New(1)
	n := 0
	s.Schedule(time.Millisecond, func() { n++ })
	s.Schedule(2*time.Millisecond, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first step: n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if s.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var out []int64
		for i := 0; i < 50; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
			s.Schedule(d, func() { out = append(out, s.Elapsed().Nanoseconds()) })
		}
		if err := s.Run(time.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSchedulePropertyMonotone property-checks that however events are
// scheduled, they always fire in non-decreasing time order.
func TestSchedulePropertyMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var times []time.Time
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, s.Now())
			})
		}
		if err := s.Run(time.Minute); err != nil {
			return false
		}
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i].Before(times[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	n := 0
	tk := NewTicker(s, 100*time.Millisecond, func() { n++ })
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 10 {
		t.Fatalf("ticker fired %d times in 1s at 100ms, want 10", n)
	}
	tk.Stop()
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 10 {
		t.Fatalf("stopped ticker kept firing: %d", n)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = NewTicker(s, 10*time.Millisecond, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

// TestTickerReset: a ticker's period is changed by stopping it and starting
// another from the current instant; the stopped one never fires again.
func TestTickerReset(t *testing.T) {
	s := New(1)
	n := 0
	tk := NewTicker(s, 100*time.Millisecond, func() { n++ })
	s.Schedule(500*time.Millisecond, func() {
		tk.Stop()
		NewTicker(s, 50*time.Millisecond, func() { n++ })
	})
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Ticks at 100..400ms (4). At t=500ms the reset event was scheduled
	// before the 500ms tick (lower sequence number), so it fires first
	// and cancels that tick. Then every 50ms from 550..1000: 10 more.
	if n != 14 {
		t.Fatalf("ticker fired %d times, want 14", n)
	}
}

// TestDaemonTickerDoesNotKeepRunAlive pins the daemon-event contract: a
// daemon ticker interleaves with foreground work, but once the workload's
// own queue drains the run ends — instrumentation alone never extends it.
func TestDaemonTickerDoesNotKeepRunAlive(t *testing.T) {
	s := New(1)
	ticks := 0
	NewDaemonTicker(s, 100*time.Millisecond, func() { ticks++ })
	s.Schedule(450*time.Millisecond, func() {}) // the workload's last event
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Ticks at 100..400ms fire alongside the workload; the 500ms tick is
	// past the last foreground event and must not.
	if ticks != 4 {
		t.Fatalf("daemon ticker fired %d times, want 4 (run must end with the workload)", ticks)
	}
	// The idle clock still advances to the horizon, as for a drained queue.
	if got := s.Now(); !got.Equal(Epoch.Add(10 * time.Second)) {
		t.Fatalf("clock at %v, want horizon", got)
	}

	// New foreground work revives the run — and the stranded past tick
	// fires at the present rather than rewinding the clock.
	s.Schedule(200*time.Millisecond, func() {})
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if ticks <= 4 {
		t.Fatalf("daemon ticker dead after revival: %d ticks", ticks)
	}
	if s.Now().Before(Epoch.Add(10 * time.Second)) {
		t.Fatalf("clock rewound to %v", s.Now())
	}
}

// TestDaemonCancelAccounting exercises the foreground counter against
// cancelled daemon and foreground events: cancelling must not unbalance
// the count that decides when Run treats the queue as drained.
func TestDaemonCancelAccounting(t *testing.T) {
	s := New(1)
	ticks := 0
	tk := NewDaemonTicker(s, 10*time.Millisecond, func() { ticks++ })
	ev := s.Schedule(50*time.Millisecond, func() { t.Error("cancelled event fired") })
	s.Cancel(ev)
	s.Schedule(35*time.Millisecond, func() { tk.Stop() })
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ticks != 3 {
		t.Fatalf("daemon ticker fired %d times before Stop at 35ms, want 3", ticks)
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("idle run: %v", err)
	}
	if ticks != 3 {
		t.Fatalf("stopped daemon ticker kept firing: %d", ticks)
	}
}

func TestReentrantRunRejected(t *testing.T) {
	s := New(1)
	var innerErr error
	s.Schedule(time.Millisecond, func() {
		innerErr = s.Run(time.Millisecond)
	})
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if innerErr == nil {
		t.Fatal("re-entrant Run did not error")
	}
}
