package trace

import (
	"fmt"
	"time"
)

// SpanID identifies a causal span. IDs are assigned sequentially per
// recorder starting at 1; 0 means "no span".
type SpanID uint64

// Span is one node of the causal tree: an interval of virtual time opened
// by an emitter, optionally parented on the span that caused it. Events
// recorded while a span is ambient reference it via Event.Span, so a
// segment can be followed client → switch tap → primary stack and backup
// tap as one linked tree.
type Span struct {
	ID        SpanID
	Parent    SpanID
	Kind      Kind
	Component string
	Message   string
	Start     time.Time
	End       time.Time // zero while open
	// Auto marks fan-out spans (segment journeys, heartbeat rounds) that
	// have no single natural close point; FinalizeAutoSpans ends them at
	// their last attached activity.
	Auto bool

	lastTouch time.Time
}

// Open reports whether the span has not been closed yet.
func (s Span) Open() bool { return s.End.IsZero() }

// Duration is End-Start for closed spans and zero for open ones.
func (s Span) Duration() time.Duration {
	if s.Open() {
		return 0
	}
	return s.End.Sub(s.Start)
}

func (s Span) String() string {
	state := fmt.Sprintf("%v", s.Duration())
	if s.Open() {
		state = "open"
	}
	out := fmt.Sprintf("%12s %-18s %-20s span#%d %s (%s)",
		s.Start.Format("15:04:05.000"), s.Kind, s.Component, s.ID, s.Message, state)
	if s.Parent != 0 {
		out += fmt.Sprintf(" parent#%d", s.Parent)
	}
	return out
}

// OpenSpan starts a span of the given kind under parent (0 for a root) and
// returns its ID. The span does not become ambient; use Activate for that.
func (r *Recorder) OpenSpan(kind Kind, parent SpanID, component, format string, args ...any) SpanID {
	return r.open(kind, parent, component, false, format, args...)
}

// OpenAutoSpan starts a fan-out span that is closed administratively by
// FinalizeAutoSpans at its last attached activity rather than by an
// explicit CloseSpan.
func (r *Recorder) OpenAutoSpan(kind Kind, parent SpanID, component, format string, args ...any) SpanID {
	return r.open(kind, parent, component, true, format, args...)
}

// OpenAutoSpanAt is OpenAutoSpan with an explicit (earlier) start time, for
// phases that are recognised retroactively: a detector that fires now knows
// the symptom began at some recorded watermark in the past, and the span
// should cover the whole phase, not just the verdict instant. A start in
// the future (or zero) is clamped to now.
func (r *Recorder) OpenAutoSpanAt(start time.Time, kind Kind, parent SpanID, component, format string, args ...any) SpanID {
	id := r.open(kind, parent, component, true, format, args...)
	if sp := r.span(id); sp != nil && !start.IsZero() && start.Before(sp.Start) {
		sp.Start = start
	}
	return id
}

// span returns the recorded span with the given ID, nil for 0 or an ID this
// recorder never assigned. IDs are sequential from 1 and spans is
// append-only, so the index is id-1.
func (r *Recorder) span(id SpanID) *Span {
	if id == 0 || id > SpanID(len(r.spans)) {
		return nil
	}
	return &r.spans[id-1]
}

func (r *Recorder) open(kind Kind, parent SpanID, component string, auto bool, format string, args ...any) SpanID {
	if r == nil {
		return 0
	}
	id := SpanID(len(r.spans) + 1)
	now := r.nowFn()
	r.spans = append(r.spans, Span{
		ID:        id,
		Parent:    parent,
		Kind:      kind,
		Component: component,
		Message:   fmt.Sprintf(format, args...),
		Start:     now,
		Auto:      auto,
		lastTouch: now,
	})
	return id
}

// CloseSpan ends the span at the current virtual time. Closing an unknown
// or already-closed span is tolerated but recorded as a span error —
// interleaved (non-nested) open/close orders are legal, double closes and
// stray closes are instrumentation bugs.
func (r *Recorder) CloseSpan(id SpanID) {
	if r == nil || id == 0 {
		return
	}
	sp := r.span(id)
	if sp == nil {
		r.spanErrs = append(r.spanErrs, fmt.Sprintf("close of unknown span #%d", id))
		return
	}
	if !sp.Open() {
		r.spanErrs = append(r.spanErrs, fmt.Sprintf("double close of span #%d (%s %s)", id, sp.Kind, sp.Component))
		return
	}
	now := r.nowFn()
	sp.End = now
	sp.lastTouch = now
}

// Ambient returns the span ID currently propagated as the causal context
// (via the bound simulator when BindContext was called).
func (r *Recorder) Ambient() SpanID {
	if r == nil {
		return 0
	}
	if r.ctxGet != nil {
		return SpanID(r.ctxGet())
	}
	return SpanID(r.ambient)
}

// Activate makes id the ambient causal span and returns a restore function
// for the previous one. Typical use:
//
//	sp := tracer.OpenSpan(...)
//	defer tracer.Activate(sp)()
//
// Everything emitted — and every sim event scheduled — until the restore
// runs is attributed to sp.
func (r *Recorder) Activate(id SpanID) func() {
	if r == nil {
		return func() {}
	}
	prev := uint64(r.Ambient())
	r.setAmbient(uint64(id))
	return func() { r.setAmbient(prev) }
}

func (r *Recorder) setAmbient(v uint64) {
	if r.ctxSet != nil {
		r.ctxSet(v)
		return
	}
	r.ambient = v
}

// Spans returns a copy of all recorded spans in open order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// SpanByID looks a span up by ID.
func (r *Recorder) SpanByID(id SpanID) (Span, bool) {
	if r == nil {
		return Span{}, false
	}
	if sp := r.span(id); sp != nil {
		return *sp, true
	}
	return Span{}, false
}

// FilterSpans returns the spans of the given kind, in open order.
func (r *Recorder) FilterSpans(kind Kind) []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for _, s := range r.spans {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// OpenSpans returns the spans still open, auto spans excluded — those are
// closed administratively and are not leaks.
func (r *Recorder) OpenSpans() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for _, s := range r.spans {
		if s.Open() && !s.Auto {
			out = append(out, s)
		}
	}
	return out
}

// Ancestry returns the chain of span IDs from id's parent up to the root,
// nearest first. Broken links (evicted ancestors) end the walk.
func (r *Recorder) Ancestry(id SpanID) []SpanID {
	if r == nil {
		return nil
	}
	var out []SpanID
	for {
		s, ok := r.SpanByID(id)
		if !ok || s.Parent == 0 {
			return out
		}
		// Guard against cycles from corrupted instrumentation.
		if len(out) > len(r.spans) {
			return out
		}
		out = append(out, s.Parent)
		id = s.Parent
	}
}

// CausallyLinked reports whether span id or any of its ancestors has an
// attached event of the given kind.
func (r *Recorder) CausallyLinked(id SpanID, kind Kind) bool {
	if r == nil {
		return false
	}
	set := map[SpanID]bool{id: true}
	for _, a := range r.Ancestry(id) {
		set[a] = true
	}
	for _, j := range r.byKind[kind] {
		if set[r.events.at(j).span] {
			return true
		}
	}
	return false
}

// SpanErrors returns the instrumentation errors seen so far (double closes,
// closes of unknown spans).
func (r *Recorder) SpanErrors() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.spanErrs))
	copy(out, r.spanErrs)
	return out
}

// FinalizeAutoSpans ends every still-open auto span at its last attached
// activity (or its start, if nothing ever attached). Exporters and
// analyzers call it at end of run; it is idempotent.
func (r *Recorder) FinalizeAutoSpans() {
	if r == nil {
		return
	}
	for i := range r.spans {
		if r.spans[i].Auto && r.spans[i].Open() {
			r.spans[i].End = r.spans[i].lastTouch
		}
	}
}
