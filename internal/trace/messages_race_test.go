//go:build race

package trace

import (
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

// gauge renders its current value: a pointer argument whose message would
// change if it changed after the emit.
type gauge struct{ n int }

func (g *gauge) String() string { return strconv.Itoa(g.n) }

// TestArgumentChangedAfterEmitPanics holds the rule EmitIn states — the
// arguments are values — in the race build: every read re-renders the
// message and panics when it differs from the one rendered at the emit.
func TestArgumentChangedAfterEmitPanics(t *testing.T) {
	reads := map[string]func(r *Recorder){
		"Events": func(r *Recorder) { r.Events() },
		"Filter": func(r *Recorder) { r.Filter(KindGeneric) },
		"First":  func(r *Recorder) { r.First(KindGeneric) },
		"Dump":   func(r *Recorder) { _ = r.Dump() },
		"WriteChromeTrace": func(r *Recorder) {
			_ = r.WriteChromeTrace(io.Discard, time.Time{})
		},
	}
	for name, read := range reads {
		r := NewRecorder(newClock())
		g := &gauge{n: 1}
		r.Emit(KindGeneric, "primary", "gauge at %v", g)
		read(r) // unchanged: renders as emitted
		g.n = 2
		func() {
			defer func() {
				s, _ := recover().(string)
				if !strings.Contains(s, "an argument changed after EmitIn") {
					t.Errorf("%s after the argument changed: recovered %q, want the changed-argument panic", name, s)
				}
			}()
			read(r)
		}()
	}
}
