package chaos

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// fakeRun is a run without a simulator: one takeover, one skip, and a
// violation when fails says so.
func fakeRun(p experiment.Plan, fails bool) *RunResult {
	r := &RunResult{
		Plan:    p,
		Metrics: &metrics.Snapshot{Samples: []metrics.Sample{{Name: "sttcp.takeovers", Type: "counter", Value: 1}}},
		Skipped: []string{"a guard"},
	}
	if fails {
		r.Violations = []experiment.Violation{{Invariant: "fake", Detail: "seeded"}}
	}
	return r
}

// fakeDriver is the Driver of seeds 0..n-1 of the default campaign with
// fakeRun for a run, failing where fails says.
func fakeDriver(n int, fails func(p experiment.Plan, detail bool) bool) Driver[experiment.Plan] {
	d := CampaignDefault.Seeds(0, n, experiment.Options{})
	d.Run = func(p experiment.Plan, detail bool) (*RunResult, error) { return fakeRun(p, fails(p, detail)), nil }
	return d
}

// TestDriveStopsAtTheFirstFailureInJobOrder: of two failing seeds the
// first in seed order is the failure, though the later one failed first,
// and the census counts exactly the runs read up to it.
func TestDriveStopsAtTheFirstFailureInJobOrder(t *testing.T) {
	var once sync.Once
	sevenFailed := make(chan struct{})
	var read []int64
	d := fakeDriver(100, func(p experiment.Plan, _ bool) bool {
		switch p.Seed {
		case 5:
			<-sevenFailed
			return true
		case 7:
			once.Do(func() { close(sevenFailed) })
			return true
		}
		return false
	})
	d.Read = func(p experiment.Plan, _ *RunResult) { read = append(read, p.Seed) }
	var (
		census Census
		fail   *Failure[experiment.Plan]
		err    error
	)
	withProcs(4, func() { census, fail, err = d.Drive() })
	if err != nil || fail == nil || fail.Job.Seed != 5 {
		t.Fatalf("Drive = %+v, %v; want seed 5's failure", fail, err)
	}
	if want := []int64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(read, want) {
		t.Errorf("read seeds %v, want %v", read, want)
	}
	if want := (Census{Takeovers: 6, Skipped: 6}); census != want {
		t.Errorf("census %+v, want %+v", census, want)
	}
}

// TestDriveRunsAtMostLookaheadPastAFailure: a campaign of 10,000 seeds
// whose seed 3 fails runs at most Lookahead seeds in all beyond the four
// it reads (a fan-out of every seed before reading would run them all).
func TestDriveRunsAtMostLookaheadPastAFailure(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		var mu sync.Mutex
		seeds := map[int64]bool{}
		d := fakeDriver(10_000, func(p experiment.Plan, _ bool) bool {
			mu.Lock()
			seeds[p.Seed] = true
			mu.Unlock()
			return p.Seed == 3
		})
		withProcs(procs, func() {
			if _, fail, err := d.Drive(); err != nil || fail == nil || fail.Job.Seed != 3 {
				t.Fatalf("GOMAXPROCS=%d: Drive = %+v, %v; want seed 3's failure", procs, fail, err)
			}
			if n, bound := len(seeds), 3+sweep.Lookahead(); n > bound {
				t.Errorf("GOMAXPROCS=%d: %d seeds ran, want at most %d", procs, n, bound)
			}
		})
	}
}

// TestDriveShrinksThenReplaysWithDetail: the failure is shrunk to the one
// fault that fails, Minimize spends what is left of the budget, and the
// run reported is the minimal reproduction replayed with detail.
func TestDriveShrinksThenReplaysWithDetail(t *testing.T) {
	p := experiment.Plan{Faults: []experiment.Fault{
		{Kind: experiment.FaultCrash, Host: "serving"},
		{Kind: experiment.FaultNICFail, Host: "standby"},
		{Kind: experiment.FaultSerialCut},
	}}
	failing := func(p experiment.Plan) bool {
		for _, f := range p.Faults {
			if f.Kind == experiment.FaultNICFail {
				return true
			}
		}
		return false
	}
	var lastDetail bool
	var minimizeBudget int
	jobs := []experiment.Plan{p}
	d := Driver[experiment.Plan]{
		Next: func() (experiment.Plan, bool) {
			if len(jobs) == 0 {
				return experiment.Plan{}, false
			}
			j := jobs[0]
			jobs = jobs[1:]
			return j, true
		},
		With: func(_, p experiment.Plan) experiment.Plan { return p },
		Run: func(p experiment.Plan, detail bool) (*RunResult, error) {
			lastDetail = detail
			return fakeRun(p, failing(p)), nil
		},
		ShrinkBudget: 10,
		Minimize: func(p experiment.Plan, budget int) (experiment.Plan, int, error) {
			minimizeBudget = budget
			return p, 1, nil
		},
		Detail: true,
	}
	_, fail, err := d.Drive()
	if err != nil || fail == nil {
		t.Fatalf("Drive = %+v, %v; want a failure", fail, err)
	}
	if got := fail.Min.Faults; len(got) != 1 || got[0].Kind != experiment.FaultNICFail {
		t.Errorf("shrunk to %s, want the NIC failure alone", Describe(fail.Min))
	}
	// Shrink drops the serial cut (fails), the NIC failure (passes), the
	// crash (fails) and the NIC failure again (passes): four runs, then
	// Minimize's one on the six left.
	if fail.ShrinkRuns != 5 || minimizeBudget != 6 {
		t.Errorf("shrink runs %d with %d left to Minimize, want 5 and 6", fail.ShrinkRuns, minimizeBudget)
	}
	if !lastDetail || !reflect.DeepEqual(fail.Result.Plan, fail.Min) || len(fail.Found.Plan.Faults) != 3 {
		t.Errorf("reported %s (detail %v) found as %s; want the minimal plan replayed with detail",
			Describe(fail.Result.Plan), lastDetail, Describe(fail.Found.Plan))
	}
}

// TestUnreproducedFailureErrs: a failure whose replay passes is an error,
// never a report of a passing run.
func TestUnreproducedFailureErrs(t *testing.T) {
	d := fakeDriver(10, func(p experiment.Plan, detail bool) bool { return p.Seed == 2 && !detail })
	d.Detail = true
	if _, _, err := d.Drive(); err == nil || !strings.Contains(err.Error(), "passed when replayed with trace detail") {
		t.Fatalf("Drive returned %v; want the failed replay's error", err)
	}
}

// TestDriveReturnsARunError: a job that fails to run ends the campaign with
// its error, and Read sees it as a nil run.
func TestDriveReturnsARunError(t *testing.T) {
	boom := errors.New("boom")
	d := fakeDriver(10, func(experiment.Plan, bool) bool { return false })
	run := d.Run
	d.Run = func(p experiment.Plan, detail bool) (*RunResult, error) {
		if p.Seed == 4 {
			return nil, boom
		}
		return run(p, detail)
	}
	var nils int
	d.Read = func(_ experiment.Plan, r *RunResult) {
		if r == nil {
			nils++
		}
	}
	if census, fail, err := d.Drive(); !errors.Is(err, boom) || fail != nil || nils != 1 || census.Takeovers != 4 {
		t.Fatalf("Drive = %+v, %+v, %v with %d nil reads; want boom after four runs", census, fail, err, nils)
	}
}

// TestDriveIsTheSameOnAnyPoolSize: the census and the failure do not depend
// on GOMAXPROCS.
func TestDriveIsTheSameOnAnyPoolSize(t *testing.T) {
	type verdict struct {
		Census
		seed  int64
		runs  int
		found *RunResult
	}
	drive := func() verdict {
		c, f, err := fakeDriver(300, func(p experiment.Plan, _ bool) bool { return p.Seed == 250 }).Drive()
		if err != nil || f == nil {
			t.Fatalf("Drive = %+v, %v", f, err)
		}
		return verdict{c, f.Job.Seed, f.ShrinkRuns, f.Found}
	}
	var want verdict
	withProcs(1, func() { want = drive() })
	for _, procs := range []int{2, 8} {
		var got verdict
		withProcs(procs, func() { got = drive() })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: %+v, want %+v", procs, got, want)
		}
	}
}

// TestDriveJoinsItsWorkers: no goroutine of a campaign outlives Drive,
// whether it drains or stops at a failure.
func TestDriveJoinsItsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	withProcs(8, func() {
		for _, failAt := range []int64{-1, 10} {
			if _, _, err := fakeDriver(200, func(p experiment.Plan, _ bool) bool { return p.Seed == failAt }).Drive(); err != nil {
				t.Fatal(err)
			}
		}
	})
	// A joined worker has called Done but may not have unwound yet.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the campaigns, %d after", before, runtime.NumGoroutine())
		}
	}
}

// withProcs runs f under runtime.GOMAXPROCS(n), the pool's size, and
// restores the setting afterwards.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}
