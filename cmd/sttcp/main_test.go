package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// cli runs the command in-process and returns its exit status and output.
func cli(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun fails the test unless the command exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errb := cli(args...)
	if code != 0 {
		t.Fatalf("sttcp %s: exit %d\nstderr: %s\nstdout: %s", strings.Join(args, " "), code, errb, out)
	}
	return out
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"demo", "-no-such-flag"},
		{"demo", "-demo", "demo99"},
		{"bench", "-exp", "all"}, // the sweeps are registry demos now: an unknown subcommand
		{"lab"},
		{"demo", "-demo", "explore"}, // the explorer has one door: sttcp explore
		{"chaos", "-runs", "0"},      // a campaign of nothing must not report "all invariants held"
		{"chaos", "-runs", "-5"},
		{"chaos", "-runs", "3", "-wall", "30s"}, // bounded in seeds only
		{"explore", "-faults", "gremlins"},
		{"explore", "-wall", "25s"},
		{"explore", "-max-runs", "0"}, // an exploration of nothing must not report a verdict
		{"explore", "-fault-points", "-1"},
		{"explore", "-grace", "-1ms"},
		// The report is the one metrics and events artifact; its window is
		// the one it implies.
		{"demo", "-metrics-out", "m.json"},
		{"demo", "-json", "e.json"},
		{"demo", "-telemetry-window", "100ms"},
		{"report"},
		{"report", "-diff", "a.json", "b.json"}, // two reports compare with cmp
		{"vet", "-format", "xml"},
		{"vet", "-format", "json"},
	} {
		code, out, errb := cli(args...)
		if code != 2 || out != "" || errb == "" {
			t.Errorf("sttcp %v: exit %d, stdout %q, stderr %q; want exit 2 with only a diagnostic", args, code, out, errb)
		}
	}
	if _, _, errb := cli("frobnicate"); !strings.Contains(errb, "usage: sttcp <subcommand>") {
		t.Errorf("unknown subcommand did not print the usage:\n%s", errb)
	}
	if _, _, errb := cli("demo", "-no-such-flag"); !strings.Contains(errb, "usage: sttcp demo") {
		t.Errorf("unknown flag did not print the subcommand's usage:\n%s", errb)
	}
}

// TestHelpListsEverySubcommand: `sttcp help` is the CLI reference README.md
// tabulates, so it must name every subcommand and show its flags.
func TestHelpListsEverySubcommand(t *testing.T) {
	out := mustRun(t, "help")
	for _, c := range commands {
		if !strings.Contains(out, "usage: sttcp "+c.name+" ") {
			t.Errorf("help lacks the usage of %q", c.name)
		}
	}
	if len(commands) != 6 {
		t.Errorf("the command table has %d subcommands, want six (README \"Command-line reference\")", len(commands))
	}
	for _, flagName := range []string{"-demo", "-timeline", "-gray", "-require-closed", "-filter", "-format", "-report-out"} {
		if !strings.Contains(out, "  "+flagName+" ") && !strings.Contains(out, "  "+flagName+"\n") {
			t.Errorf("help lacks flag %s", flagName)
		}
	}
}

func TestDemoIsDeterministic(t *testing.T) {
	first := mustRun(t, "demo", "-demo", "demo1", "-seed", "7")
	if second := mustRun(t, "demo", "-demo", "demo1", "-seed", "7"); first != second {
		t.Errorf("same seed, different stdout:\n--- first\n%s--- second\n%s", first, second)
	}
	if !strings.Contains(first, "=== demo1: ") || !strings.Contains(first, "never reconnected") {
		t.Errorf("demo1 output lost its shape:\n%s", first)
	}
}

func TestLabPasses(t *testing.T) {
	out := mustRun(t, "lab", "../../scenarios/transient-recovery.sttcp")
	if n := strings.Count(out, "PASS  expect"); n != 3 || strings.Contains(out, "FAIL") {
		t.Errorf("want three PASS lines and no FAIL:\n%s", out)
	}
}

func TestChaosHoldsInvariants(t *testing.T) {
	out := mustRun(t, "chaos", "-runs", "3")
	if !strings.Contains(out, "sttcp chaos: 3 runs, all invariants held") {
		t.Errorf("campaign summary missing:\n%s", out)
	}
	for _, inv := range []string{"single-transmitter", "span-integrity"} {
		if !strings.Contains(out, inv) {
			t.Errorf("invariant %s not listed as checked:\n%s", inv, out)
		}
	}
	if again := mustRun(t, "chaos", "-runs", "3"); again != out {
		t.Errorf("same seeds, different stdout:\n--- first\n%s--- second\n%s", out, again)
	}
}

// TestExploreIsDeterministic: a verdict is an exact artefact, so the closable
// window prints the same bytes twice — no wall clock on stdout.
func TestExploreIsDeterministic(t *testing.T) {
	args := []string{"explore", "-seed", "7", "-fault-span", "4ms", "-grace", "2ms", "-fault-points", "1", "-require-closed"}
	first := mustRun(t, args...)
	if second := mustRun(t, args...); first != second {
		t.Errorf("same window, different stdout:\n--- first\n%s--- second\n%s", first, second)
	}
	if !strings.Contains(first, "explored 29 interleavings") || !strings.Contains(first, "window FULLY CLOSED") {
		t.Errorf("the window that closes in 29 interleavings printed:\n%s", first)
	}
}

// TestExploreHonoursZeros: a zero flag means what it says. This window
// starts at 0 s and forks nothing past its 4 ms; a zero once meant the
// default 300 ms and 1.4 s while the header still printed the zeros, and
// this command then met 2,253 choice points, 758 of them truncated.
func TestExploreHonoursZeros(t *testing.T) {
	got := mustRun(t, "explore", "-seed", "7", "-fault-at", "0s", "-fault-span", "4ms", "-grace", "0s", "-fault-points", "2", "-max-runs", "3")
	want := `sttcp explore: seed=7 window=[0s,4ms) grace=0s
explored 3 interleavings across 2 fault points (2 boundaries)
choice points 47, deduped 0, truncated 0, frontier 34
takeovers 2, non-FT transitions 0, guard skips 0
window NOT closed (budget reached); no violations found
`
	if got != want {
		t.Errorf("explore over [0s,4ms) with no grace printed:\n%s\nwant:\n%s", got, want)
	}
}

// TestExploreNamesWhyItDidNotClose: a window whose frontier drains but whose
// forks were all cut by -max-prefix 0 did not close for that reason, not for
// a budget it never reached.
func TestExploreNamesWhyItDidNotClose(t *testing.T) {
	got := mustRun(t, "explore", "-seed", "7", "-fault-span", "4ms", "-grace", "2ms", "-fault-points", "1", "-max-prefix", "0")
	want := `sttcp explore: seed=7 window=[300ms,304ms) grace=2ms
explored 2 interleavings across 1 fault points (1 boundaries)
choice points 12, deduped 0, truncated 3, frontier 0
takeovers 1, non-FT transitions 0, guard skips 0
window NOT closed (3 choice points truncated beyond -max-prefix); no violations found
`
	if got != want {
		t.Errorf("explore with -max-prefix 0 printed:\n%s\nwant:\n%s", got, want)
	}
}

// TestReportRendersAndDiffsItsOwnOutput: a report renders as a dashboard, and
// two reports of the same run are the same bytes — the only diff there is.
func TestReportRendersAndDiffsItsOwnOutput(t *testing.T) {
	dir := t.TempDir()
	rep, again := filepath.Join(dir, "report.json"), filepath.Join(dir, "again.json")
	out := mustRun(t, "demo", "-demo", "demo5", "-report-out", rep)
	if !strings.Contains(out, "render it with sttcp report "+rep) {
		t.Errorf("no confirmation line for the report:\n%s", out)
	}
	if dash := mustRun(t, "report", "-filter", "client.", rep); !strings.Contains(dash, "demo5") {
		t.Errorf("dashboard does not name the demo:\n%s", dash)
	}
	mustRun(t, "demo", "-demo", "demo5", "-report-out", again)
	a, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(again); err != nil || !bytes.Equal(a, b) {
		t.Errorf("the same run wrote two different reports (%d vs %d bytes, %v)", len(a), len(b), err)
	}
}

// TestVetListsTheAnalyzers: vet has no -list; `sttcp help` names the four
// analyzers of the suite, each with its one-line doc.
func TestVetListsTheAnalyzers(t *testing.T) {
	out := mustRun(t, "help")
	want := []string{"simdeterminism", "maporder", "resulterrors", "structure"}
	suite := analysis.Analyzers()
	if len(suite) != len(want) {
		t.Fatalf("the suite has %d analyzers, want %v", len(suite), want)
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %s, want %s", i, a.Name, want[i])
		}
		if !strings.Contains(out, "\n  "+a.Name+" ") || !strings.Contains(out, a.Doc) {
			t.Errorf("help does not list %s with its doc %q:\n%s", a.Name, a.Doc, out)
		}
	}
}

// TestTraceViewsRejectedBeforeTheRun: a demo that builds no testbed must
// refuse every artifact flag and trace view up front (it used to run to
// completion and then fail, ignore the flag, or — for -report-out — write an
// empty shell of a report).
func TestTraceViewsRejectedBeforeTheRun(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-trace-out", filepath.Join(dir, "t.json")},
		{"-timeline"},
		{"-trace"},
		{"-report-out", "-"},
	} {
		code, out, errb := cli(append([]string{"demo", "-demo", "capacity"}, args...)...)
		if code != 2 || out != "" || !strings.Contains(errb, "-demo capacity") {
			t.Errorf("demo -demo capacity %v: exit %d, stdout %q, stderr %q; want a refusal before any output", args, code, out, errb)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("a refused run still wrote %d file(s)", len(left))
	}
}

// TestTraceArtifactsForAnyTracedDemo: -trace-out used to know two of the
// result shapes; now every demo that builds a testbed hands its recorder
// back.
func TestTraceArtifactsForAnyTracedDemo(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	mustRun(t, "demo", "-demo", "scale", "-conns", "10", "-trace-out", spans)
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Errorf("the span trace is not JSON: %v", err)
	}
	if !bytes.Contains(raw, []byte("takeover")) {
		t.Error("the span trace records no takeover")
	}
}

// TestReportOutDashIsJSON: `-report-out -` appends to the demo's output
// exactly the JSON the file would hold, its metrics section the run's metric
// snapshot.
func TestReportOutDashIsJSON(t *testing.T) {
	file := filepath.Join(t.TempDir(), "r.json")
	toFile := mustRun(t, "demo", "-demo", "demo5", "-report-out", file)
	toStdout := mustRun(t, "demo", "-demo", "demo5", "-report-out", "-")
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	banner, _, _ := strings.Cut(toFile, "\n(run report written to "+file)
	if toStdout != banner+string(want) {
		t.Errorf("-report-out - did not append the file's JSON encoding to the demo output:\n%s", toStdout)
	}
	var rep struct {
		Metrics struct{ Samples []json.RawMessage }
	}
	if err := json.Unmarshal(want, &rep); err != nil || len(rep.Metrics.Samples) == 0 {
		t.Errorf("report does not decode as JSON with metric samples: %v", err)
	}
}

// TestReportsMatchTheOldAssemblers pins telemetry.NewReport at each of its
// four call sites — a registry demo, a chaos run, a scenario script, a
// Table 1 row — to the bytes the four hand-rolled assemblers it replaced
// produced for the same runs (SHA-256 of the -report-out file, captured at
// the parent commit of the change that introduced NewReport). Table 1 also
// checks its ten rows here, to run the matrix once. After a deliberate
// protocol change these move with the trace goldens: take the new sums
// from the failure messages.
func TestReportsMatchTheOldAssemblers(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		// from is where the pinned bytes start: the old Table 1 report
		// named its row in params and carried that row's seed, the
		// registry's records the invocation, so its identity header is out.
		from, sum string
		rows      int // Table 1 rows that must report client ok
	}{
		// Re-pinned when the switch's latency moved onto the switch-bound
		// wire: the sched.fired series reads one event fewer per switched
		// frame (sched.pending follows), and a frame whose 5 µs dwell
		// straddles a window edge is counted by its link one 100 ms window
		// later — 14 such shifts on the client and backup links, same totals.
		// Re-pinned when a crash began stopping the host's clocks: the dead
		// primary's 15 RTO retransmissions are gone (its retransmit and
		// backoff counters, and its cwnd gauge, which no timeout collapses
		// to one segment any more), so the run's last foreground event is
		// at 3.7 s, not the give-up at 8:42, and the daemon sampler stops
		// there (37 windows, not 5,228); sched.fired and sched.pending read
		// those timer events fewer.
		// Re-pinned when a wake-up with nothing else due at its instant
		// began running in place, without an event: the sched.fired
		// series, and only it, reads those wake-ups fewer — here and in
		// the three runs below (sched.pending is unchanged).
		// Re-pinned when a finished client stopped counting as stalled:
		// the client.stalled_conns cells after the client finished read 0,
		// not 1 — here and in the three runs below — and nothing else moves.
		{"demo2 at 200ms (the demo2-dashboard.golden run)",
			[]string{"demo", "-demo", "demo2", "-periods", "200ms"},
			"", "564070d020ab58f77a335ea00c86b3472b65dbcd9cf4a2af3447d95b8d9f58e0", 0},
		// Re-pinned when chaos began injecting through experiment.Testbed:
		// the harness's no-op revert event behind each self-expiring drop
		// is gone, so the sched.fired/sched.pending series — and only
		// they — read two events fewer for this schedule's two drops.
		// Re-pinned again when the counter==trace invariant went (counter
		// and event are written by one helper): its verdict entry, three
		// lines of the invariants list, is the whole difference.
		// Re-pinned when the switch's latency moved onto the switch-bound
		// wire: the sched.fired series, and only it, reads one event fewer
		// per switched frame — here and in the two runs below.
		// Re-pinned when the hold-buffer-bound invariant went (a
		// connection cannot hold more than its receive buffer): its
		// entry in the invariants list is the whole difference.
		// Re-pinned when dead-host-silence joined the registry: its entry
		// in the invariants list is the whole difference.
		{"chaos seed 1",
			[]string{"chaos", "-seed", "1", "-runs", "1"},
			"", "6e1687eb6ff5747c210f3e76962c6c1834a62b4197ace2027f2588ee6eec11e3", 0},
		{"scenario transient-recovery",
			[]string{"lab", "../../scenarios/transient-recovery.sttcp"},
			"", "a26b36402bca7ffd82196cc499b7eec97d395c8b641413130221b9749ae705fe", 0},
		{"Table 1 row 5P",
			[]string{"demo", "-demo", "table1"},
			`  "finished_at"`, "11849dd2fc39328ec3f9498e1db9919b92da5acef2b2e7b5f56526a54e01fb09", 10},
	} {
		path := filepath.Join(dir, "report.json")
		out := mustRun(t, append([]string{c.args[0], "-report-out", path}, c.args[1:]...)...)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pinned := raw[bytes.Index(raw, []byte(c.from)):]
		if sum := sha256.Sum256(pinned); hex.EncodeToString(sum[:]) != c.sum {
			t.Errorf("%s: report differs from the old assembler's (sha256 %x, want %s)", c.name, sum, c.sum)
		}
		if n := strings.Count(out, " true\n"); c.rows > 0 && n != c.rows {
			t.Errorf("%s: %d rows report client ok, want %d:\n%s", c.name, n, c.rows, out)
		}
	}
}
