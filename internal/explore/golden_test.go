package explore

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// strandQueue is the seeded-bug fixture: a heap that, once wait pops have
// gone by, hands out the runner-up and leaves the earliest event stranded
// until the pop after — the shape of the calendar queue's historical
// rewind-strand bug (spilled entries consulted only after later ones had
// fired), so one pop comes out of (when, seq) order and the virtual clock
// steps backward. Only an event alone at its instant is stranded: a tie
// group is the explorer's to order. A negative wait never strands.
type strandQueue struct {
	sim.Scheduler
	wait int
	last int64 // instant of the previous pop
}

func (q *strandQueue) Pop() *sim.Event {
	first, next := q.Scheduler.Pop(), q.Scheduler.Peek()
	if q.wait > 0 {
		q.wait--
	}
	if first == nil || next == nil {
		return first
	}
	at, _ := first.SchedKey()
	after, _ := next.SchedKey()
	alone := at != q.last && at != after
	q.last = at
	if q.wait != 0 || !alone {
		return first
	}
	q.wait = -1
	q.Scheduler.Pop()
	q.Scheduler.Schedule(first)
	return next
}

func strandingQueue() sim.Scheduler { return &strandQueue{Scheduler: heapQueue(), wait: 1000} }
func soundQueue() sim.Scheduler     { return &strandQueue{Scheduler: heapQueue(), wait: -1} }

var updateGolden = flag.Bool("update", false, "rewrite the golden minimal-schedule file from the current run")

// TestGoldenSeededRewindBug reintroduces the calendar queue's historical
// rewind-strand bug as a buggy inner queue and demands that the explorer
// (a) finds a violating interleaving and (b) shrinks it to the exact
// minimal schedule checked into testdata/golden. The bug leaves an entry
// stranded so pops come out of order and the virtual clock steps backward
// — invisible to every end-state invariant (the queue self-heals at the
// next pop) but caught by the wrapper's scheduler-order audit on the very
// first run.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/explore -run Golden -update
func TestGoldenSeededRewindBug(t *testing.T) {
	cfg := smallWindow()
	res, err := explore(cfg, strandingQueue)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("explorer missed the seeded rewind-strand bug:\n%s", res.Report())
	}

	got := renderViolation(res.Violations[0])
	golden := filepath.Join("testdata", "golden", "rewind-strand.golden")
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
		t.Errorf("minimal reproduction drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}

	// The shrink must also be stable: a second exploration lands on the
	// byte-identical minimal reproduction.
	again, err := explore(cfg, strandingQueue)
	if err != nil {
		t.Fatalf("second explore: %v", err)
	}
	if len(again.Violations) == 0 {
		t.Fatalf("second exploration missed the bug")
	}
	if r2 := renderViolation(again.Violations[0]); r2 != got {
		t.Errorf("shrink is unstable across runs:\n--- first ---\n%s--- second ---\n%s", got, r2)
	}
}

// renderViolation is the golden surface: the minimal schedule, the
// minimal choice prefix, and the set of invariants broken — everything a
// developer needs to reproduce, nothing volatile enough to churn.
func renderViolation(v ViolationRun) string {
	names := map[string]bool{}
	for _, viol := range v.Result.Violations {
		names[viol.Invariant] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var b strings.Builder
	fmt.Fprintf(&b, "schedule: %s\n", chaos.Describe(v.ShrunkPlan))
	fmt.Fprintf(&b, "prefix: %v\n", v.MinPrefix)
	fmt.Fprintf(&b, "invariants: %s\n", strings.Join(sorted, " "))
	return b.String()
}

// TestSeededBugInvisibleWithoutAudit documents why the wrapper's order
// audit exists: the strand self-heals at the next pop, so the same
// buggy run sails through every end-state invariant. Only the
// scheduler-order audit separates the two runs.
func TestSeededBugInvisibleWithoutAudit(t *testing.T) {
	res, err := explore(smallWindow(), strandingQueue)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("no violation found")
	}
	for _, viol := range res.Violations[0].Result.Violations {
		if viol.Invariant != "scheduler-order" {
			t.Errorf("seeded bug tripped end-state invariant %q; the audit is no longer the only detector (update the doc comment)", viol.Invariant)
		}
		if !strings.Contains(viol.Detail, "virtual time went backward") {
			t.Errorf("audit detail %q does not describe the misordering", viol.Detail)
		}
	}
}

// TestGoldenBugOffStillCloses proves the golden path is the bug's fault:
// with the strand off, the identical exploration over the same fixture
// queue closes with zero violations.
func TestGoldenBugOffStillCloses(t *testing.T) {
	res, err := explore(smallWindow(), soundQueue)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(res.Violations) != 0 || !res.FullyClosed {
		t.Fatalf("bug-off exploration: closed=%v violations=%d\n%s",
			res.FullyClosed, len(res.Violations), res.Report())
	}
}
