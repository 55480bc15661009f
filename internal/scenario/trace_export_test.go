package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runShipped executes one scenario from the shipped scenarios/ directory.
func runShipped(t *testing.T, name string, o experiment.Options) *Result {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", "scenarios", name))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	sc, err := Parse(string(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(sc, o)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestChromeTraceRoundTrip exports the demo1-failover scenario's span trace
// as Chrome trace-event JSON and feeds it back through the validator — the
// same check a Perfetto load would make, runnable in CI.
func TestChromeTraceRoundTrip(t *testing.T) {
	res := runShipped(t, "demo1-failover.sttcp", experiment.Options{TraceDetail: true})
	var buf bytes.Buffer
	if err := res.Tracer.WriteChromeTrace(&buf, sim.Epoch); err != nil {
		t.Fatalf("export: %v", err)
	}
	n, err := validateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	if n < 100 {
		t.Fatalf("suspiciously small trace: %d entries", n)
	}
	// A failover run must carry the anatomy spans.
	for _, want := range []string{"detection", "takeover", "retransmit-wait", "segment-journey"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("export lacks %q slices", want)
		}
	}
}

// validateChromeTrace parses data as Chrome trace-event JSON and checks the
// structural invariants Perfetto relies on: known phases, named events,
// non-negative timestamps and durations, and balanced flow arrows. It
// returns the number of trace events.
func validateChromeTrace(data []byte) (int, error) {
	var f struct {
		TraceEvents []struct {
			Name  string          `json:"name"`
			Phase string          `json:"ph"`
			TS    *float64        `json:"ts"`
			Dur   *float64        `json:"dur"`
			PID   *int            `json:"pid"`
			TID   *int            `json:"tid"`
			ID    string          `json:"id"`
			Args  json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("invalid JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return 0, fmt.Errorf("no traceEvents")
	}
	flows := map[string]int{}
	for i, e := range f.TraceEvents {
		switch e.Phase {
		case "M":
			// Metadata carries no timestamp.
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				return 0, fmt.Errorf("event %d (%q): X without non-negative dur", i, e.Name)
			}
			fallthrough
		case "i", "s", "f":
			if e.TS == nil || *e.TS < 0 {
				return 0, fmt.Errorf("event %d (%q): missing or negative ts", i, e.Name)
			}
		default:
			return 0, fmt.Errorf("event %d (%q): unknown phase %q", i, e.Name, e.Phase)
		}
		if e.Name == "" {
			return 0, fmt.Errorf("event %d: empty name", i)
		}
		if e.PID == nil || e.TID == nil {
			return 0, fmt.Errorf("event %d (%q): missing pid/tid", i, e.Name)
		}
		switch e.Phase {
		case "s":
			flows[e.ID]++
		case "f":
			flows[e.ID]--
		}
	}
	for id, n := range flows {
		if n != 0 {
			return 0, fmt.Errorf("unbalanced flow %q (%+d)", id, n)
		}
	}
	return len(f.TraceEvents), nil
}

// TestTimelineGolden renders the demo1-failover scenario's span timeline at
// a fixed width and compares it against a checked-in golden, so the
// human-facing failover anatomy view cannot drift unreviewed. Regenerate
// after an intentional change with:
//
//	go test ./internal/scenario -run TimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	res := runShipped(t, "demo1-failover.sttcp", experiment.Options{})
	anatomies := res.Tracer.Anatomy()
	if len(anatomies) == 0 {
		t.Fatal("scenario produced no failover anatomy")
	}
	a := anatomies[0]
	got := res.Tracer.RenderSpanTimeline(trace.TimelineOptions{
		Start: a.FaultAt.Add(-150 * time.Millisecond),
		End:   a.ResumeTxAt.Add(250 * time.Millisecond),
		Width: 100,
		Epoch: sim.Epoch,
	})
	golden := filepath.Join("testdata", "golden", "demo1-failover.timeline")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
