package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkHold is the classic priority-queue benchmark on the whole
// simulator: a steady population of pending events, each firing posting its
// successor a pseudo-random delay ahead. The far-timer variants also push
// one timer back from every firing event — the RTO's fate on every ACK —
// which costs a removal near a leaf and an insert that stays there.
func BenchmarkHold(b *testing.B) {
	for _, depth := range []int{16, 4096} {
		for _, farTimer := range []bool{false, true} {
			name := fmt.Sprintf("pending=%d", depth)
			if farTimer {
				name += "/far-timer"
			}
			b.Run(name, func(b *testing.B) {
				s := New(1)
				far := s.NewTimer(func() {})
				x := uint64(88172645463325252)
				var fire func()
				fire = func() {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					s.Post(time.Duration(1+x%uint64(time.Millisecond)), fire)
					if farTimer {
						far.Arm(200 * time.Millisecond)
					}
				}
				for i := 0; i < depth; i++ {
					fire()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step()
				}
			})
		}
	}
}

// BenchmarkTimerRearm times Timer.Arm on a pending timer among 16 other
// events: behind them all, where a connection's RTO sits in a run, and
// ahead of them all, the worst case (the whole heap's depth both ways) and
// what the repository benchmark's sim.timer_reset_ns driver times. The
// clock case is the behind one on a host clock's timer, as TCP's are.
func BenchmarkTimerRearm(b *testing.B) {
	for _, c := range []struct {
		name   string
		others time.Duration
		clock  bool
	}{{"behind", time.Millisecond, false}, {"ahead", time.Hour, false}, {"clock", time.Millisecond, true}} {
		b.Run(c.name, func(b *testing.B) {
			s := New(1)
			for i := 0; i < 16; i++ {
				s.Post(c.others, func() {})
			}
			newTimer := s.NewTimer
			if c.clock {
				newTimer = NewClock(s).NewTimer
			}
			t := newTimer(func() {})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Arm(200 * time.Millisecond)
			}
		})
	}
}
