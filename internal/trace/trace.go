// Package trace provides structured event recording for simulations.
//
// Components emit typed events (connection takeover, heartbeat loss, crash
// injection, ...) tagged with virtual timestamps; experiments query the
// recorded stream to compute metrics such as failover time, and tests assert
// on it to verify that a scenario unfolded the way Table 1 of the paper says
// it should.
package trace

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Kind classifies a recorded event.
type Kind int

// Event kinds, grouped by the subsystem that emits them.
const (
	KindGeneric Kind = iota + 1

	// Fault injection.
	KindHostCrash
	KindOSCrash
	KindAppCrash
	KindNICFail
	KindLinkDrop
	KindPowerOff

	// Heartbeat subsystem.
	KindHBSent
	KindHBReceived
	KindHBLinkDown
	KindHBLinkUp

	// Failure detection and recovery (Table 1 actions).
	KindSuspect
	KindTakeover
	KindNonFTMode
	KindShutdownPeer
	KindFINDelayed
	KindFINSuppressed
	KindFINReleased
	KindByteRecovery

	// TCP milestones.
	KindConnEstablished
	KindConnClosed
	KindConnReset
	KindRetransmit

	// Application milestones.
	KindAppProgress
	KindAppDone

	// Causal span kinds and high-volume detail events (see HighVolume).
	// Span kinds double as event kinds where a span's open/close is itself
	// a milestone.
	KindSegmentJourney
	KindHBRound
	KindDetection
	KindRetransmitWait
	KindSegmentTX
	KindSegmentRX
	KindSegmentSuppressed
	KindNetEnqueue
	KindNetDeliver
	KindNetDrop
)

var kindNames = map[Kind]string{
	KindGeneric:           "generic",
	KindHostCrash:         "host-crash",
	KindOSCrash:           "os-crash",
	KindAppCrash:          "app-crash",
	KindNICFail:           "nic-fail",
	KindLinkDrop:          "link-drop",
	KindPowerOff:          "power-off",
	KindHBSent:            "hb-sent",
	KindHBReceived:        "hb-received",
	KindHBLinkDown:        "hb-link-down",
	KindHBLinkUp:          "hb-link-up",
	KindSuspect:           "suspect",
	KindTakeover:          "takeover",
	KindNonFTMode:         "non-ft-mode",
	KindShutdownPeer:      "shutdown-peer",
	KindFINDelayed:        "fin-delayed",
	KindFINSuppressed:     "fin-suppressed",
	KindFINReleased:       "fin-released",
	KindByteRecovery:      "byte-recovery",
	KindConnEstablished:   "conn-established",
	KindConnClosed:        "conn-closed",
	KindConnReset:         "conn-reset",
	KindRetransmit:        "retransmit",
	KindAppProgress:       "app-progress",
	KindAppDone:           "app-done",
	KindSegmentJourney:    "segment-journey",
	KindHBRound:           "hb-round",
	KindDetection:         "detection",
	KindRetransmitWait:    "retransmit-wait",
	KindSegmentTX:         "segment-tx",
	KindSegmentRX:         "segment-rx",
	KindSegmentSuppressed: "segment-suppressed",
	KindNetEnqueue:        "net-enqueue",
	KindNetDeliver:        "net-deliver",
	KindNetDrop:           "net-drop",
}

// String returns the canonical lowercase name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// HighVolume reports whether k is a per-packet kind — one event per
// delivery, heartbeat, segment or frame, one span per segment or heartbeat
// round. Every emitter of such a kind guards the call with Recorder.Detail,
// so a run with detail off records none of them: its trace is the
// milestones, and the per-packet facts live in the clients' progress
// series and the metric counters.
func (k Kind) HighVolume() bool {
	switch k {
	case KindHBSent, KindHBReceived, KindAppProgress,
		KindSegmentTX, KindSegmentRX, KindSegmentSuppressed, KindSegmentJourney, KindHBRound,
		KindNetEnqueue, KindNetDeliver, KindNetDrop:
		return true
	}
	return false
}

// Event is one recorded occurrence.
type Event struct {
	Time      time.Time
	Kind      Kind
	Component string // e.g. "primary/sttcp", "client/tcp"
	Message   string
	Value     int64  // optional numeric payload (bytes, sequence number, ...)
	Span      SpanID // enclosing causal span, 0 if none
}

func (e Event) String() string {
	s := fmt.Sprintf("%12s %-18s %-20s %s", e.Time.Format("15:04:05.000"), e.Kind, e.Component, e.Message)
	if e.Value != 0 {
		s += fmt.Sprintf(" [value=%d]", e.Value)
	}
	return s
}

// record is one stored event. Its message is kept as the format and the
// arguments it was emitted with, and rendered only when the event is read
// (Recorder.event): most runs never read most messages. No larger than an
// Event.
type record struct {
	at        time.Time
	component string
	format    string
	value     int64
	span      SpanID
	args      uint32 // the index of the first argument in Recorder.args
	nargs     uint16
	kind      uint16
}

// Recorder accumulates events in timestamp order (events arrive in order
// because the simulation is single-threaded) and the causal span tree they
// hang off. A per-kind index keeps Filter/Count/First/Has from rescanning
// the whole log on every analyzer or invariant query.
type Recorder struct {
	events chunked[record]
	args   chunked[any]   // every record's message arguments
	byKind map[Kind][]int // event indices per kind, in order
	nowFn  func() time.Time
	// rendered holds each event's message as rendered when it was emitted,
	// in the race build only (checkMessages), for every read to compare.
	rendered []string

	spans    []Span // append-only; span ID n is spans[n-1]
	spanErrs []string

	// ctxGet/ctxSet bind the recorder to the simulator's ambient causal
	// context without importing sim (see BindContext).
	ctxGet func() uint64
	ctxSet func(uint64)
	// ambient is the fallback context store when no simulator is bound.
	ambient uint64
	// progress is the client-side delivery record Anatomy joins with the
	// span tree (see BindProgress).
	progress func(t time.Time) (before, after time.Time)

	detail bool
}

// NewRecorder returns a recorder that stamps events using now, typically
// (*sim.Simulator).Now.
func NewRecorder(now func() time.Time) *Recorder {
	return &Recorder{nowFn: now, byKind: map[Kind][]int{}}
}

// BindContext connects the recorder to an external ambient-context store —
// in practice (*sim.Simulator).Context/SetContext — so spans activated here
// propagate through the simulator's event queue to asynchronous
// continuations. Without a binding the recorder keeps a local ambient value,
// which is enough for single-scope tests.
func (r *Recorder) BindContext(get func() uint64, set func(uint64)) {
	if r == nil {
		return
	}
	r.ctxGet = get
	r.ctxSet = set
}

// BindProgress connects the recorder to the clients' progress series, the
// one per-delivery record of a run: bracket reports the last client delivery
// at or before t and the first after it, zero where there is none. Anatomy
// reads the client-visible stall of each takeover through it.
func (r *Recorder) BindProgress(bracket func(t time.Time) (before, after time.Time)) {
	if r == nil {
		return
	}
	r.progress = bracket
}

// SetDetail toggles high-volume instrumentation (the Kind.HighVolume kinds).
// Off by default so long campaigns and benchmarks pay nothing for it.
func (r *Recorder) SetDetail(on bool) {
	if r == nil {
		return
	}
	r.detail = on
}

// Detail reports whether high-volume instrumentation is enabled.
func (r *Recorder) Detail() bool {
	return r != nil && r.detail
}

// Emit records an event with a formatted message.
func (r *Recorder) Emit(kind Kind, component, format string, args ...any) {
	r.EmitValue(kind, component, 0, format, args...)
}

// EmitValue records an event carrying a numeric payload. The event is
// attached to the ambient causal span, if one is active.
func (r *Recorder) EmitValue(kind Kind, component string, value int64, format string, args ...any) {
	r.EmitIn(r.Ambient(), kind, component, value, format, args...)
}

// EmitIn records an event attached to a specific span rather than the
// ambient one. The message is rendered from format and args when the event
// is read, not now, so the arguments are values: nothing an argument
// refers to may change after the call. The race build renders it now too
// and panics at any read that renders it differently.
func (r *Recorder) EmitIn(span SpanID, kind Kind, component string, value int64, format string, args ...any) {
	if r == nil {
		return
	}
	if len(args) > chunkLen {
		// Too many to keep in a chunk: keep the message instead.
		format, args = "%s", []any{fmt.Sprintf(format, args...)}
	}
	now := r.nowFn()
	if sp := r.span(span); sp != nil {
		sp.lastTouch = now
	}
	first := r.args.append(args...)
	if first > math.MaxUint32 {
		panic("trace: more message arguments than a record can index")
	}
	i := r.events.append(record{
		at:        now,
		component: component,
		format:    format,
		value:     value,
		span:      span,
		args:      uint32(first),
		nargs:     uint16(len(args)),
		kind:      uint16(kind),
	})
	r.byKind[kind] = append(r.byKind[kind], i)
	if checkMessages {
		r.rendered = append(r.rendered, r.message(i))
	}
}

// message renders event i's message from its format and arguments.
func (r *Recorder) message(i int) string {
	e := r.events.at(i)
	args := r.args.slice(int(e.args), int(e.nargs))
	msg := e.format
	if len(args) > 0 || strings.IndexByte(msg, '%') >= 0 {
		msg = fmt.Sprintf(msg, args...)
	}
	if checkMessages && i < len(r.rendered) && msg != r.rendered[i] {
		panic(fmt.Sprintf("trace: event %d (%s) reads %q but was emitted as %q: an argument changed after EmitIn", i, Kind(e.kind), msg, r.rendered[i]))
	}
	return msg
}

// event renders record i as the Event it stands for.
func (r *Recorder) event(i int) Event {
	e := r.events.at(i)
	return Event{
		Time:      e.at,
		Kind:      Kind(e.kind),
		Component: e.component,
		Message:   r.message(i),
		Value:     e.value,
		Span:      e.span,
	}
}

// Events returns a copy of all recorded events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, r.events.end)
	for i := range out {
		out[i] = r.event(i)
	}
	return out
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.events.end
}

// Filter returns the events matching kind, in order.
func (r *Recorder) Filter(kind Kind) []Event {
	if r == nil {
		return nil
	}
	idx := r.byKind[kind]
	if len(idx) == 0 {
		return nil
	}
	out := make([]Event, len(idx))
	for i, j := range idx {
		out[i] = r.event(j)
	}
	return out
}

// First returns the earliest event of the given kind, or false if none.
func (r *Recorder) First(kind Kind) (Event, bool) {
	if r == nil {
		return Event{}, false
	}
	idx := r.byKind[kind]
	if len(idx) == 0 {
		return Event{}, false
	}
	return r.event(idx[0]), true
}

// Count reports the number of events of the given kind.
func (r *Recorder) Count(kind Kind) int {
	if r == nil {
		return 0
	}
	return len(r.byKind[kind])
}

// Has reports whether any event of the given kind was recorded.
func (r *Recorder) Has(kind Kind) bool {
	return r != nil && len(r.byKind[kind]) > 0
}

// Dump renders all events as a multi-line string, for debugging and the demo
// CLIs.
func (r *Recorder) Dump() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for i := range r.events.end {
		b.WriteString(r.event(i).String())
		b.WriteByte('\n')
	}
	return b.String()
}
