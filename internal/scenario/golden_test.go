package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files from the current run")

// condenseTrace reduces a trace to its milestone event-kind sequence: the
// two kinds a detail-off run still records in bulk (retransmits, free-form
// generic notes) are dropped — high-volume kinds (trace.Kind.HighVolume) are
// never recorded with detail off — and consecutive repeats of the same kind
// collapse to one line. What remains is the protocol's story — crash,
// suspect, takeover, recovery, connection lifecycle — which must not change
// unnoticed.
func condenseTrace(rec *trace.Recorder) string {
	noise := map[trace.Kind]bool{
		trace.KindGeneric:    true,
		trace.KindRetransmit: true,
	}
	var b strings.Builder
	var last trace.Kind
	for _, e := range rec.Events() {
		if noise[e.Kind] || e.Kind == last {
			continue
		}
		b.WriteString(e.Kind.String())
		b.WriteByte('\n')
		last = e.Kind
	}
	return b.String()
}

// TestGoldenTraces runs every shipped scenario and compares its condensed
// event-kind sequence against a checked-in golden file, so any behavioural
// drift in the protocol shows up as a reviewable diff. Regenerate after an
// intentional change with:
//
//	go test ./internal/scenario -run Golden -update
func TestGoldenTraces(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".sttcp" {
			continue
		}
		name := e.Name()
		ran++
		t.Run(name, func(t *testing.T) {
			text, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			sc, err := Parse(string(text))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := Run(sc, experiment.Options{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := condenseTrace(res.Tracer)
			golden := filepath.Join("testdata", "golden", strings.TrimSuffix(name, ".sttcp")+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
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
				t.Errorf("milestone trace drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
	if ran < 9 {
		t.Fatalf("only %d scenarios covered by golden traces, want all 9", ran)
	}
}
