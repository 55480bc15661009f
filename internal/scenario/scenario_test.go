package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/trace"
)

func TestParseFullScript(t *testing.T) {
	text := `
# demo 1 as a script
option hb 500ms
option seed 7
option witness

client download 16MiB
at 500ms crash primary
run 30s
expect takeover
expect clients-done
`
	sc, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(sc.Statements) != 8 {
		t.Fatalf("statements = %d", len(sc.Statements))
	}
	if sc.Statements[0].OptionName != "hb" || sc.Statements[0].OptionValue != "500ms" {
		t.Fatalf("option 0 = %+v", sc.Statements[0])
	}
	cl := sc.Statements[3]
	if cl.Verb != VerbClient || cl.Client != (experiment.Workload{Bytes: 16 << 20}) {
		t.Fatalf("client = %+v", cl)
	}
	at := sc.Statements[4]
	if at.Verb != VerbAt || at.Fault != (experiment.Fault{At: 500 * time.Millisecond, Kind: experiment.FaultCrash, Host: "primary"}) {
		t.Fatalf("at = %+v", at)
	}
	if sc.Statements[5].RunFor != 30*time.Second {
		t.Fatalf("run = %+v", sc.Statements[5])
	}
	if sc.Statements[6].Cond != "takeover" || sc.Statements[7].Cond != "clients-done" {
		t.Fatal("expects wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"bogus statement", "unknown statement"},
		{"client download 16MiB\noption hb 1s", "options must precede"},
		{"option hb soon", "bad duration"},
		{"option color blue", "usage: option"},
		{"option suspicion", "usage: option"},
		{"client teleport 1MiB", "unknown client kind"},
		{"client echo ten 1KiB", "bad rounds"},
		{"at noon crash primary", "bad time"},
		{"at 1s crash mars", "unknown host"},
		{"at 1s appcrash primary loudly", "usage: appcrash"},
		{"at 1s explode primary", "unknown action"},
		{"at 1s drop primary", "usage: drop"},
		{"run", "usage: run"},
		{"expect victory", "unknown condition"},
		{"", "empty script"},
		{"at 1s serialcut now", "takes no arguments"},
	}
	for _, c := range cases {
		_, err := Parse(c.text)
		if err == nil {
			t.Errorf("%q: no error", c.text)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%q: error is not a ParseError: %v", c.text, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not contain %q", c.text, err, c.want)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"512":   512,
		"512B":  512,
		"64KiB": 64 << 10,
		"16MiB": 16 << 20,
		"1GiB":  1 << 30,
		"0":     0,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-5", "5TiB5"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q): no error", bad)
		}
	}
}

func TestRunDemo1Script(t *testing.T) {
	sc, err := Parse(`
client download 8MiB
at 300ms crash primary
run 60s
expect takeover
expect clients-done
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(sc, experiment.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.OK() {
		t.Fatalf("checks failed: %+v", res.Checks)
	}
	if len(res.Clients) != 1 || !strings.Contains(res.Clients[0], "done=true") {
		t.Fatalf("client summary: %v", res.Clients)
	}
}

func TestRunTransientScript(t *testing.T) {
	sc, err := Parse(`
client echo 400 1KiB
at 1s drop backup 300ms
run 60s
expect no-failover
expect recovery
expect clients-done
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(sc, experiment.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.OK() {
		for _, c := range res.Checks {
			t.Logf("line %d expect %s: passed=%v %s", c.Line, c.Cond, c.Passed, c.Detail)
		}
		t.Fatal("checks failed")
	}
}

func TestRunRejoinScript(t *testing.T) {
	sc, err := Parse(`
client download 4MiB
at 200ms crash primary
run 5s
expect takeover
at 5s rejoin
run 3s
expect active
expect clients-done
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(sc, experiment.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.OK() {
		t.Fatalf("checks failed: %+v", res.Checks)
	}
}

// TestRunRoleScript is double-failover.sttcp spelled by role: both crashes
// name the serving node, which is the primary machine the first time and
// the backup machine, serving since the takeover, the second.
func TestRunRoleScript(t *testing.T) {
	sc, err := Parse(`
client download 4MiB
at 200ms crash serving
run 5s
expect takeover
at 5s rejoin
run 2s
expect active
client download 8MiB
at 8s crash serving
run 1m
expect clients-done
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(sc, experiment.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.OK() {
		t.Fatalf("checks failed: %+v, errors %v", res.Checks, res.Errors)
	}
	var crashed []string
	for _, e := range res.Tracer.Filter(trace.KindHostCrash) {
		crashed = append(crashed, e.Component)
	}
	if got := strings.Join(crashed, " "); got != "primary backup" {
		t.Errorf("crash serving crashed %q, want the primary, then the backup", got)
	}
}

func TestRunFailingExpectIsReported(t *testing.T) {
	sc, err := Parse(`
client download 1MiB
run 10s
expect takeover
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(sc, experiment.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.OK() {
		t.Fatal("expect takeover passed without any failure injected")
	}
	if res.Checks[0].Detail == "" {
		t.Fatal("failed check has no detail")
	}

	// clients-done names every unfinished client, not only the last.
	sc, err = Parse(`
client download 64MiB
run 100ms
client download 64MiB
run 100ms
expect clients-done
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res, err = Run(sc, experiment.Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	c := res.Checks[0]
	if c.Passed || !strings.Contains(c.Detail, "download 0:") || !strings.Contains(c.Detail, "download 1:") {
		t.Fatalf("clients-done with two unfinished clients: passed=%v detail %q, want both named", c.Passed, c.Detail)
	}
}

func TestRunRejectsMixedWorkloads(t *testing.T) {
	sc, err := Parse(`
client download 1MiB
client echo 10 1KiB
run 1s
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Run(sc, experiment.Options{}); err == nil {
		t.Fatal("mixed workloads accepted")
	}
}

// TestScriptWithoutExpectIsJudged: a script states no expectation, yet its
// run is held to the invariant registry like every plan's. With the
// detectors blinded by an hour-long heartbeat, a primary crash strands the
// download, and the run reports it as client-integrity.
func TestScriptWithoutExpectIsJudged(t *testing.T) {
	sc, err := Parse(`
option hb 1h
client download 16MiB
at 500ms crash primary
run 10s
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(sc, experiment.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.OK() || len(res.Errors) == 0 || !strings.HasPrefix(res.Errors[0], "client-integrity: client/app never finished") {
		t.Fatalf("stranded client: OK %v, errors %q, want a client-integrity error", res.OK(), res.Errors)
	}
}
