package trace

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func newClock() func() time.Time {
	now := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
}

func TestEmitAndQuery(t *testing.T) {
	r := NewRecorder(newClock())
	r.Emit(KindHostCrash, "primary", "HW crash")
	r.Emit(KindTakeover, "backup/sttcp", "took over %d conns", 3)
	r.EmitValue(KindAppProgress, "client", 42, "progress")

	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	e, ok := r.First(KindTakeover)
	if !ok || e.Message != "took over 3 conns" {
		t.Fatalf("first takeover = %+v, %v", e, ok)
	}
	if r.Count(KindHostCrash) != 1 || r.Count(KindNICFail) != 0 {
		t.Fatal("count wrong")
	}
	if !r.Has(KindAppProgress) || r.Has(KindFINDelayed) {
		t.Fatal("has wrong")
	}
	if got := r.Filter(KindAppProgress); len(got) != 1 || got[0].Value != 42 {
		t.Fatalf("filter = %+v", got)
	}
}

func TestLastAndOrdering(t *testing.T) {
	r := NewRecorder(newClock())
	r.Emit(KindRetransmit, "a", "first")
	r.Emit(KindRetransmit, "b", "second")
	if got := r.Filter(KindRetransmit); len(got) != 2 || got[1].Message != "second" {
		t.Fatalf("filter is not in emission order: %+v", got)
	}
	events := r.Events()
	if !events[1].Time.After(events[0].Time) {
		t.Fatal("timestamps not monotone")
	}
	// Events() must be a copy.
	events[0].Message = "mutated"
	if e, _ := r.First(KindRetransmit); e.Message == "mutated" {
		t.Fatal("Events leaked internal storage")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Emit(KindGeneric, "x", "must not panic")
	if r.Len() != 0 || r.Events() != nil || r.Has(KindGeneric) {
		t.Fatal("nil recorder misbehaved")
	}
	if _, ok := r.First(KindGeneric); ok {
		t.Fatal("nil recorder returned an event")
	}
	if r.Dump() != "" {
		t.Fatal("nil dump")
	}
}

func TestDumpAndKinds(t *testing.T) {
	r := NewRecorder(newClock())
	r.Emit(KindHBLinkDown, "primary/sttcp", "ip-link silent")
	r.Emit(KindSuspect, "backup/sttcp", "peer failed")
	d := r.Dump()
	if !strings.Contains(d, "hb-link-down") || !strings.Contains(d, "peer failed") {
		t.Fatalf("dump missing content:\n%s", d)
	}
	if r.Len() != 2 || r.Count(KindHBLinkDown) != 1 || r.Count(KindSuspect) != 1 {
		t.Fatalf("kinds recorded:\n%s", d)
	}
}

func TestKindStrings(t *testing.T) {
	if KindTakeover.String() != "takeover" {
		t.Fatalf("takeover = %q", KindTakeover.String())
	}
	if !strings.Contains(Kind(9999).String(), "9999") {
		t.Fatal("unknown kind string")
	}
}

// TestEmitIsNotGatedByDetail pins where the detail gate lives: at the call
// sites (that is what keeps argument boxing off the per-packet paths), not
// in the recorder. A bare recorder with detail off records every kind it is
// handed, high-volume ones included — the benchmark's trace.emit_ns driver
// times exactly that.
func TestEmitIsNotGatedByDetail(t *testing.T) {
	r := NewRecorder(newClock())
	if r.Detail() {
		t.Fatal("a new recorder has detail on")
	}
	for k := range kindNames {
		r.EmitValue(k, "client/app", 7, "%v", k)
	}
	if r.Len() != len(kindNames) {
		t.Fatalf("recorded %d of %d kinds with detail off", r.Len(), len(kindNames))
	}
	for k := range kindNames {
		if r.Count(k) != 1 {
			t.Errorf("%v: %d events, want 1 (HighVolume %v)", k, r.Count(k), k.HighVolume())
		}
	}
	if !KindAppProgress.HighVolume() || !KindHBSent.HighVolume() || KindTakeover.HighVolume() || KindGeneric.HighVolume() {
		t.Error("HighVolume misclassifies app-progress, hb-sent, takeover or generic")
	}
}

// TestAnatomyReadsTheBoundProgressSeries builds one takeover by hand. The
// server-side phases come from the span tree; the client half comes only
// from the series bound with BindProgress — app-progress events are a
// narrative, not a source — and stays zero without a binding, as in a
// baseline run.
func TestAnatomyReadsTheBoundProgressSeries(t *testing.T) {
	epoch := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	now := epoch
	r := NewRecorder(func() time.Time { return now })
	emit := func(ms int, f func()) { now = at(ms); f() }

	emit(90, func() { r.EmitValue(KindAppProgress, "client/app", 1, "received") })
	emit(100, func() { r.Emit(KindHostCrash, "primary", "HW crash") })
	var det, take, wait SpanID
	emit(700, func() {
		det = r.OpenAutoSpan(KindDetection, 0, "backup/sttcp", "peer silent")
		r.EmitIn(det, KindSuspect, "backup/sttcp", 0, "peer failed")
	})
	emit(710, func() {
		take = r.OpenSpan(KindTakeover, det, "backup/sttcp", "takeover")
		wait = r.OpenSpan(KindRetransmitWait, take, "backup/sttcp", "waiting")
	})
	emit(900, func() { r.CloseSpan(wait); r.CloseSpan(take) })
	emit(901, func() { r.EmitValue(KindAppProgress, "client/app", 2, "received") })

	as := r.Anatomy()
	if len(as) != 1 {
		t.Fatalf("got %d anatomies, want 1", len(as))
	}
	a := as[0]
	if a.Detection != 600*time.Millisecond || a.Takeover != 10*time.Millisecond || a.RetransmitWait != 190*time.Millisecond {
		t.Errorf("server half = %v/%v/%v, want 600ms/10ms/190ms", a.Detection, a.Takeover, a.RetransmitWait)
	}
	if !a.StallStart.IsZero() || !a.StallEnd.IsZero() || a.ClientStall != 0 || a.PipelineDrain != 0 || a.DeliveryLatency != 0 {
		t.Errorf("client half without a bound series = %+v, want zero", a)
	}

	var asked time.Time
	r.BindProgress(func(t time.Time) (before, after time.Time) {
		asked = t
		return at(105), at(902)
	})
	a = r.Anatomy()[0]
	if !asked.Equal(at(710)) {
		t.Errorf("series asked about %v, want the takeover instant %v", asked, at(710))
	}
	if a.ClientStall != 797*time.Millisecond || a.PipelineDrain != 5*time.Millisecond || a.DeliveryLatency != 2*time.Millisecond {
		t.Errorf("client half = stall %v, drain %v, latency %v; want 797ms, 5ms, 2ms", a.ClientStall, a.PipelineDrain, a.DeliveryLatency)
	}
	if a.Residual() != 0 {
		t.Errorf("phases do not reconcile with the stall: residual %v", a.Residual())
	}

	// A series with no delivery after the takeover has no stall to report.
	r.BindProgress(func(time.Time) (before, after time.Time) { return at(105), time.Time{} })
	if a = r.Anatomy()[0]; a.ClientStall != 0 || !a.StallStart.IsZero() {
		t.Errorf("client half with no delivery after the takeover = %+v, want zero", a)
	}
}

// TestNilRecorderIsASink calls every exported method of a nil *Recorder with
// zero arguments: instrumented code holds a possibly-nil recorder and emits
// through it unguarded, so none may panic, and whatever one returns is empty.
func TestNilRecorderIsASink(t *testing.T) {
	var r *Recorder
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumMethod(); i++ {
		name, m := v.Type().Method(i).Name, v.Method(i)
		t.Run(name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("(*Recorder)(nil).%s panicked: %v", name, p)
				}
			}()
			mt := m.Type()
			fixed := mt.NumIn()
			if mt.IsVariadic() {
				fixed-- // no variadic arguments
			}
			args := make([]reflect.Value, fixed)
			for j := range args {
				if args[j] = reflect.Zero(mt.In(j)); mt.In(j) == reflect.TypeOf((*io.Writer)(nil)).Elem() {
					args[j] = reflect.ValueOf(io.Discard)
				}
			}
			for _, out := range m.Call(args) {
				switch out.Kind() {
				case reflect.Func: // Activate's restore
					out.Call(nil)
				case reflect.Slice, reflect.String:
					if out.Len() != 0 {
						t.Fatalf("(*Recorder)(nil).%s returned %v, want nothing", name, out)
					}
				}
			}
		})
	}
}
