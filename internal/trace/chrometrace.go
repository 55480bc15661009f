package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format, the JSON
// dialect loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.
// Spans become complete ("X") slices, point events become instants ("i"),
// and cross-component parent links become flow arrows ("s"/"f").
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds since epoch
	Dur   *float64       `json:"dur,omitempty"` // microseconds, X only
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`  // instant scope
	ID    string         `json:"id,omitempty"` // flow binding
	BP    string         `json:"bp,omitempty"` // flow end binding point
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// host extracts the process-level grouping from a component name:
// "primary/sttcp" → "primary".
func host(component string) string {
	if i := strings.IndexByte(component, '/'); i >= 0 {
		return component[:i]
	}
	return component
}

// WriteChromeTrace renders the recorded spans and events in Chrome
// trace-event JSON: one Perfetto process per host, one track (thread) per
// component, flow arrows where a span's parent lives on another component.
// Open auto spans are finalized first; elapsed time is measured from epoch.
func (r *Recorder) WriteChromeTrace(w io.Writer, epoch time.Time) error {
	if r == nil {
		return fmt.Errorf("trace: nil recorder")
	}
	r.FinalizeAutoSpans()

	// Stable numeric pid/tid assignment, sorted for determinism.
	comps := map[string]bool{}
	for _, s := range r.spans {
		comps[s.Component] = true
	}
	for i := range r.events.end {
		comps[r.events.at(i).component] = true
	}
	var names []string
	for c := range comps {
		names = append(names, c)
	}
	sort.Strings(names)
	pids := map[string]int{}
	tids := map[string]int{}
	var out []chromeEvent
	for _, c := range names {
		h := host(c)
		if _, ok := pids[h]; !ok {
			pids[h] = len(pids) + 1
			out = append(out, chromeEvent{
				Name: "process_name", Phase: "M", PID: pids[h], TID: 0,
				Args: map[string]any{"name": h},
			})
		}
		tids[c] = len(tids) + 1
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pids[h], TID: tids[c],
			Args: map[string]any{"name": c},
		})
	}
	us := func(t time.Time) float64 { return float64(t.Sub(epoch).Nanoseconds()) / 1e3 }

	for _, s := range r.spans {
		dur := us(s.End) - us(s.Start)
		if dur < 0 {
			dur = 0
		}
		args := map[string]any{"span": uint64(s.ID), "msg": s.Message}
		if s.Parent != 0 {
			args["parent"] = uint64(s.Parent)
		}
		d := dur
		out = append(out, chromeEvent{
			Name: s.Kind.String(), Cat: "span", Phase: "X",
			TS: us(s.Start), Dur: &d,
			PID: pids[host(s.Component)], TID: tids[s.Component],
			Args: args,
		})
		// Flow arrow for cross-component causality.
		if p, ok := r.SpanByID(s.Parent); ok && p.Component != s.Component {
			id := fmt.Sprintf("flow-%d", uint64(s.ID))
			out = append(out, chromeEvent{
				Name: "cause", Cat: "flow", Phase: "s",
				TS: us(p.Start), PID: pids[host(p.Component)], TID: tids[p.Component], ID: id,
			})
			out = append(out, chromeEvent{
				Name: "cause", Cat: "flow", Phase: "f", BP: "e",
				TS: us(s.Start), PID: pids[host(s.Component)], TID: tids[s.Component], ID: id,
			})
		}
	}
	for i := range r.events.end {
		e := r.event(i)
		args := map[string]any{"msg": e.Message}
		if e.Value != 0 {
			args["value"] = e.Value
		}
		if e.Span != 0 {
			args["span"] = uint64(e.Span)
		}
		out = append(out, chromeEvent{
			Name: e.Kind.String(), Cat: "event", Phase: "i",
			TS: us(e.Time), Scope: "t",
			PID: pids[host(e.Component)], TID: tids[e.Component],
			Args: args,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(chromeFile{TraceEvents: out}); err != nil {
		return fmt.Errorf("trace: encode chrome trace: %w", err)
	}
	return nil
}
