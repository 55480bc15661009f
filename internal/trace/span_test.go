package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestNilRecorderSpanSafe drives every span-layer method on a nil recorder:
// instrumented components never guard their tracer, so all of it must be
// no-op safe.
func TestNilRecorderSpanSafe(t *testing.T) {
	var r *Recorder
	if id := r.OpenSpan(KindTakeover, 0, "x", "m"); id != 0 {
		t.Fatalf("nil OpenSpan = %d", id)
	}
	if id := r.OpenAutoSpan(KindDetection, 0, "x", "m"); id != 0 {
		t.Fatalf("nil OpenAutoSpan = %d", id)
	}
	if id := r.OpenAutoSpanAt(time.Now(), KindDetection, 0, "x", "m"); id != 0 {
		t.Fatalf("nil OpenAutoSpanAt = %d", id)
	}
	r.CloseSpan(1)
	r.EmitIn(1, KindGeneric, "x", 0, "m")
	if r.Ambient() != 0 {
		t.Fatal("nil Ambient != 0")
	}
	r.Activate(1)() // restore func must be callable too
	if r.Spans() != nil || r.OpenSpans() != nil || r.FilterSpans(KindTakeover) != nil {
		t.Fatal("nil span queries returned data")
	}
	if _, ok := r.SpanByID(1); ok {
		t.Fatal("nil SpanByID found a span")
	}
	if r.Ancestry(1) != nil || r.CausallyLinked(1, KindSuspect) {
		t.Fatal("nil ancestry misbehaved")
	}
	if r.SpanErrors() != nil {
		t.Fatal("nil SpanErrors")
	}
	r.FinalizeAutoSpans()
	if r.RenderSpanTimeline(TimelineOptions{}) != "" {
		t.Fatal("nil timeline rendered content")
	}
	if r.Anatomy() != nil {
		t.Fatal("nil Anatomy returned data")
	}
	r.BindContext(nil, nil)
	r.SetDetail(true)
	if r.Detail() {
		t.Fatal("nil Detail() = true")
	}
	if err := r.WriteChromeTrace(&bytes.Buffer{}, time.Time{}); err == nil {
		t.Fatal("nil WriteChromeTrace did not error")
	}
}

// TestKindsOrderingStable checks the per-kind index answers the same
// whatever order the kinds were emitted in: each kind once, found under its
// own kind, at the position it was emitted.
func TestKindsOrderingStable(t *testing.T) {
	emit := [][]Kind{
		{KindTakeover, KindSuspect, KindHostCrash, KindRetransmit},
		{KindRetransmit, KindHostCrash, KindSuspect, KindTakeover},
		{KindSuspect, KindRetransmit, KindTakeover, KindHostCrash},
	}
	for i, order := range emit {
		r := NewRecorder(newClock())
		for _, k := range order {
			r.Emit(k, "x", "m")
		}
		events := r.Events()
		for j, k := range order {
			got := r.Filter(k)
			if r.Count(k) != 1 || len(got) != 1 || got[0] != events[j] {
				t.Fatalf("run %d: %v indexed as %+v, emitted as %+v", i, k, got, events[j])
			}
		}
	}
}

// TestInterleavedSpans checks the open/close discipline: interleaved
// (non-nested) orders are legal, while double closes and closes of unknown
// spans are recorded as span errors.
func TestInterleavedSpans(t *testing.T) {
	r := NewRecorder(newClock())
	a := r.OpenSpan(KindDetection, 0, "backup/sttcp", "a")
	b := r.OpenSpan(KindTakeover, a, "backup/sttcp", "b")
	r.CloseSpan(a) // close the parent before the child: legal
	r.CloseSpan(b)
	if errs := r.SpanErrors(); len(errs) != 0 {
		t.Fatalf("interleaved close produced errors: %v", errs)
	}
	if open := r.OpenSpans(); len(open) != 0 {
		t.Fatalf("spans left open: %v", open)
	}

	r.CloseSpan(b) // double close
	r.CloseSpan(SpanID(999))
	errs := r.SpanErrors()
	if len(errs) != 2 {
		t.Fatalf("errors = %v", errs)
	}
	if !strings.Contains(errs[0], "double close") || !strings.Contains(errs[1], "unknown span") {
		t.Fatalf("unexpected error text: %v", errs)
	}
}

// TestOpenAutoSpanAtBackdates checks retroactive opens: a start before now
// is honoured, while zero and future starts clamp to now.
func TestOpenAutoSpanAtBackdates(t *testing.T) {
	clock := newClock()
	r := NewRecorder(clock)
	r.Emit(KindGeneric, "x", "advance the clock")
	now := clock()
	past := now.Add(-time.Second)

	id := r.OpenAutoSpanAt(past, KindDetection, 0, "x", "backdated")
	sp, _ := r.SpanByID(id)
	if !sp.Start.Equal(past) {
		t.Fatalf("backdated start = %v, want %v", sp.Start, past)
	}

	id2 := r.OpenAutoSpanAt(time.Time{}, KindDetection, 0, "x", "zero start")
	sp2, _ := r.SpanByID(id2)
	if sp2.Start.Before(now) {
		t.Fatalf("zero start not clamped to now: %v", sp2.Start)
	}

	id3 := r.OpenAutoSpanAt(now.Add(time.Hour), KindDetection, 0, "x", "future start")
	sp3, _ := r.SpanByID(id3)
	if sp3.Start.After(now.Add(time.Minute)) {
		t.Fatalf("future start not clamped: %v", sp3.Start)
	}
}

// TestSpanAncestryAndEvents walks a three-level tree: events emitted while
// a span is ambient must reference it, and CausallyLinked must see a kind
// recorded on any ancestor.
func TestSpanAncestryAndEvents(t *testing.T) {
	r := NewRecorder(newClock())
	det := r.OpenSpan(KindDetection, 0, "backup/sttcp", "detection")
	r.EmitIn(det, KindSuspect, "backup/sttcp", 0, "peer failed")
	take := r.OpenSpan(KindTakeover, det, "backup/sttcp", "takeover")
	wait := r.OpenSpan(KindRetransmitWait, take, "backup/sttcp", "wait")

	anc := r.Ancestry(wait)
	if len(anc) != 2 || anc[0] != take || anc[1] != det {
		t.Fatalf("ancestry = %v", anc)
	}
	if !r.CausallyLinked(wait, KindSuspect) {
		t.Fatal("suspect on grandparent not causally linked")
	}
	if r.CausallyLinked(wait, KindHostCrash) {
		t.Fatal("absent kind reported as linked")
	}

	restore := r.Activate(take)
	r.Emit(KindGeneric, "backup/sttcp", "inside takeover")
	restore()
	r.Emit(KindGeneric, "backup/sttcp", "outside again")
	evs := r.Filter(KindGeneric)
	if len(evs) != 2 || evs[0].Span != take || evs[1].Span != 0 {
		t.Fatalf("ambient attribution wrong: %+v", evs)
	}
}

// TestFinalizeAutoSpans checks auto spans end at their last attached
// activity and non-auto spans are left alone.
func TestFinalizeAutoSpans(t *testing.T) {
	r := NewRecorder(newClock())
	auto := r.OpenAutoSpan(KindSegmentJourney, 0, "x", "journey")
	r.EmitIn(auto, KindSegmentTX, "x", 0, "tx")
	last, _ := r.First(KindSegmentTX)
	manual := r.OpenSpan(KindRetransmitWait, 0, "x", "manual")

	r.FinalizeAutoSpans()
	sp, _ := r.SpanByID(auto)
	if sp.Open() || !sp.End.Equal(last.Time) {
		t.Fatalf("auto span end = %v (open=%v), want %v", sp.End, sp.Open(), last.Time)
	}
	m, _ := r.SpanByID(manual)
	if !m.Open() {
		t.Fatal("FinalizeAutoSpans closed a manual span")
	}
	if got := r.OpenSpans(); len(got) != 1 || got[0].ID != manual {
		t.Fatalf("open spans = %v", got)
	}
	// Idempotent.
	r.FinalizeAutoSpans()
	sp2, _ := r.SpanByID(auto)
	if !sp2.End.Equal(sp.End) {
		t.Fatal("second finalize moved the end")
	}
}

// TestEventValueRendered checks Event.String renders the numeric payload
// when present (it used to be dropped).
func TestEventValueRendered(t *testing.T) {
	r := NewRecorder(newClock())
	r.EmitValue(KindRetransmit, "primary/tcp", 4242, "seq %d retransmitted", 4242)
	r.Emit(KindGeneric, "x", "no value")
	evs := r.Events()
	if !strings.Contains(evs[0].String(), "[value=4242]") {
		t.Fatalf("value missing from %q", evs[0].String())
	}
	if strings.Contains(evs[1].String(), "value=") {
		t.Fatalf("zero value rendered in %q", evs[1].String())
	}
}
