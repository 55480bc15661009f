package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// small returns the four workloads cut down to a fraction of a second each,
// keeping every mechanism: the crash, the takeover, the staggered dials.
func small() []workload {
	ws := workloads()
	for i := range ws {
		switch w := &ws[i]; w.name {
		case "bulk":
			w.bytes = 256 << 10
		case "echo":
			w.rounds = 200
		case "failover":
			w.ops = 3
		case "scale":
			w.conns = 100
		}
	}
	return ws
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// checkNames fails unless res holds exactly the declared metrics, with their
// declared units.
func checkNames(t *testing.T, res *result, declared []metricSpec) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
		if !valid.MatchString(m.Name) {
			t.Errorf("declared name %q is not a valid metric name", m.Name)
		}
	}
	for name, m := range res.Metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: emitted %s, which BENCHMARK.json does not declare", res.Workload, name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, name, m.Unit, unit)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: declared metric %s was not emitted", res.Workload, name)
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command has %d", len(sp.Workloads), len(workloads()))
	}
	for i, w := range small() {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, sp.Workloads[i].Name, w.name)
		}
		res := measure(w, 7, 0, w.ops+1)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.name, res.Correct, res.Attempted, res.Failed, res.problems)
		}
		checkNames(t, res, sp.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; every one must be positive", w.name, name, m.Value)
			}
		}
		// Same seed, same virtual-time figures, to the last digit.
		again := measure(w, 7, 0, w.ops+1)
		for name, m := range res.Metrics {
			if exactMetric(name) && again.Metrics[name] != m {
				t.Errorf("%s: %s read %v, then %v for the same seed", w.name, name, m.Value, again.Metrics[name].Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	sp := loadSpec(t)
	s := newSession()
	s.driverDiv = 50
	for _, w := range small() {
		res := s.traced(w, 7, 0, 1)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d: %v", w.name, res.Correct, res.Failed, res.problems)
		}
		checkNames(t, res, sp.PerLayer)
		if w.crash && res.Metrics["sttcp.takeovers"].Value != 1 {
			t.Errorf("%s: %v takeovers in one crashed operation", w.name, res.Metrics["sttcp.takeovers"].Value)
		}
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := s.finish(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	rungs := 0
	for _, sp := range doc.Spans {
		if sp.EndNS < sp.StartNS || sp.Parent >= sp.ID {
			t.Errorf("span %+v: ends before it starts, or precedes its parent", sp)
		}
		if strings.HasPrefix(sp.Name, "rung:") {
			rungs++
		}
	}
	if want := 5 * len(workloads()); rungs != want {
		t.Errorf("%d rung spans for one round of four workloads, want %d", rungs, want)
	}
}

func TestDeterminismGate(t *testing.T) {
	w := small()[0]
	first := newPlan(w, 7).run(0, variant{})
	other := newPlan(w, 8).run(0, variant{})
	if first.failed+other.failed > 0 {
		t.Fatalf("operations failed: %s %s", first.failure, other.failure)
	}
	if first.fingerprint() == other.fingerprint() {
		t.Errorf("seeds 7 and 8 gave the same fingerprint %s: the seed does not reach the run", first.fingerprint())
	}
}

// Timing an operation in steps must not change what it does: the sliced and
// the unsliced run of one seed agree on everything but the step count, and
// the steps add up to the whole.
func TestSlicingLeavesTheRunAlone(t *testing.T) {
	for _, w := range small() {
		w.slice = 5 * time.Millisecond
		sliced := newPlan(w, 7).run(0, variant{})
		w.slice = 0
		whole := newPlan(w, 7).run(0, variant{})
		if sliced.failed+whole.failed > 0 {
			t.Fatalf("%s: operations failed: %s %s", w.name, sliced.failure, whole.failure)
		}
		if len(whole.steps) != 1 || len(sliced.steps) < 3 {
			t.Errorf("%s: %d steps unsliced, %d sliced", w.name, len(whole.steps), len(sliced.steps))
		}
		whole.steps = sliced.steps
		if sliced.fingerprint() != whole.fingerprint() {
			t.Errorf("%s: sliced %s, whole %s", w.name, sliced.fingerprint(), whole.fingerprint())
		}
		var sum time.Duration
		for _, d := range sliced.steps {
			sum += d
		}
		if sum != sliced.host {
			t.Errorf("%s: steps add up to %v, the operation took %v", w.name, sum, sliced.host)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {1, 0}, {19, 0},
		{20, 50}, {21, 50}, {99, 50},
		{100, 90}, {999, 90},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {80000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{hundred, 50, 50},
		{hundred, 90, 90},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{[]float64{3, 1, 2}, 50, 2},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v samples, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestCompare(t *testing.T) {
	sp := &spec{
		Workloads: []workloadSpec{{Name: "bulk"}},
		EndToEnd: []metricSpec{
			{Name: "host_ns_per_segment", Unit: "ns", Better: "lower", Bound: 0.10},
			{Name: "virt_goodput_mbps", Unit: "Mbit/s", Better: "higher", Bound: 0.01},
		},
	}
	run := func(seed int64, host, goodput float64) result {
		return result{Workload: "bulk", Seed: seed, Metrics: map[string]metric{
			"host_ns_per_segment": {host, "ns"},
			"virt_goodput_mbps":   {goodput, "Mbit/s"},
		}}
	}
	for _, c := range []struct {
		name string
		a, b []result
		ok   bool
		want string
	}{
		{"within bound", []result{run(1, 100, 96)}, []result{run(1, 109, 96)}, true, "ok"},
		{"faster is fine", []result{run(1, 100, 96)}, []result{run(1, 50, 96)}, true, "ok"},
		{"host time beyond bound", []result{run(1, 100, 96)}, []result{run(1, 111, 96)}, false, "WORSE"},
		{"exact metric moved", []result{run(1, 100, 96)}, []result{run(1, 100, 96.0001)}, false, "DIFFERS"},
		{"other seed, inside bound", []result{run(1, 100, 96)}, []result{run(2, 100, 95.9)}, true, "ok"},
		{"other seed, goodput down", []result{run(1, 100, 96)}, []result{run(2, 100, 94)}, false, "WORSE"},
		{"medians of three", []result{run(1, 100, 96), run(2, 300, 96), run(3, 90, 96)},
			[]result{run(1, 105, 96), run(2, 95, 96), run(3, 400, 96)}, true, "ok"},
		{"missing on one side", []result{run(1, 100, 96)}, nil, false, "MISSING"},
		{"traced runs are ignored", []result{run(1, 100, 96)}, []result{run(1, 100, 96), {Workload: "bulk", Trace: 1, Metrics: map[string]metric{"host_ns_per_segment": {900, "ns"}}}}, true, "ok"},
	} {
		var out bytes.Buffer
		if got := compare(sp, c.a, c.b, &out); got != c.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	res := &result{Workload: "bulk", Seed: 1, Correct: true, Attempted: 1, Metrics: map[string]metric{
		"host_ns_per_segment": {100, "ns"},
	}}
	if err := appendResult(a, res); err != nil {
		t.Fatal(err)
	}
	res.Metrics["host_ns_per_segment"] = metric{200, "ns"}
	if err := appendResult(b, res); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join("..", specFile)
	var out, errs bytes.Buffer
	if code := runCompare([]string{a, a}, specPath, &out, &errs); code != 0 {
		t.Errorf("a file against itself: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if code := runCompare([]string{a, b}, specPath, &out, &errs); code != 1 {
		t.Errorf("host time doubled: exit %d, want 1\n%s%s", code, out.String(), errs.String())
	}
	if code := runCompare([]string{a}, specPath, &out, &errs); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
	if code := run([]string{"-workload", "nonesuch"}, &out, &errs); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
