// Package trace is a corpus stand-in for the real recorder: same type
// and method names on the same package-path suffix, so the maporder
// analyzer resolves corpus calls exactly as it resolves the real ones.
package trace

// Kind mimics the event kind.
type Kind int

// SpanID mimics the span identifier.
type SpanID uint64

// Recorder mimics the emit and span surface of the real recorder.
type Recorder struct{}

// Emit mimics an event append.
func (r *Recorder) Emit(kind Kind, component, format string, args ...any) {}

// EmitValue mimics a valued event append.
func (r *Recorder) EmitValue(kind Kind, component string, value int64, format string, args ...any) {}

// OpenSpan mimics opening a non-auto span.
func (r *Recorder) OpenSpan(kind Kind, parent SpanID, component, format string, args ...any) SpanID {
	return 1
}

// OpenAutoSpan mimics opening an administratively-closed span.
func (r *Recorder) OpenAutoSpan(kind Kind, parent SpanID, component, format string, args ...any) SpanID {
	return 1
}

// CloseSpan mimics closing a span.
func (r *Recorder) CloseSpan(id SpanID) {}
