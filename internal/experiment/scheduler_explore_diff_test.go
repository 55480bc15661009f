package experiment_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiment"
	"repro/internal/explore"
	"repro/internal/sim"
)

// This file holds the explorer's tie-break-forking wrapper to its
// contract: with an empty choice sequence it is invisible — a full chaos
// run (workload, crash, takeover, recovery) produces byte-identical traces
// and metrics whether the event queue is the bare heap or the heap wrapped.
// That identity is what lets exploration results transfer to production
// runs. (It lives outside package experiment because explore imports
// experiment for its demo registration.)

func exploreDiffPlan() experiment.Plan {
	p := experiment.Plan{
		Clients: []experiment.Workload{{Echo: true, Rounds: 300, MsgSize: 512, Gap: 3 * time.Millisecond}},
		Faults:  []experiment.Fault{{At: 500 * time.Millisecond, Kind: experiment.FaultCrash, Host: "serving"}},
		Horizon: 30 * time.Second,
	}
	p.Seed = 23
	return p
}

func runExploreDiff(t *testing.T, custom func() sim.Scheduler) *chaos.RunResult {
	t.Helper()
	res, err := chaos.Run(exploreDiffPlan(), experiment.Options{
		TraceDetail:     true,
		CustomScheduler: custom,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Failed() {
		t.Fatalf("run violated invariants:\n%s", res.Report())
	}
	return res
}

// demandIdentical compares everything derived from the event stream: the
// full detail trace, the rendered metric counters, and the client
// outcomes.
func demandIdentical(t *testing.T, label string, a, b *chaos.RunResult) {
	t.Helper()
	ae, be := a.Trace.Events(), b.Trace.Events()
	if !reflect.DeepEqual(ae, be) {
		n := len(ae)
		if len(be) < n {
			n = len(be)
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(ae[i], be[i]) {
				t.Fatalf("%s: traces diverge at event %d:\n  a: %v\n  b: %v", label, i, ae[i], be[i])
			}
		}
		t.Fatalf("%s: trace lengths diverge: %d vs %d events", label, len(ae), len(be))
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		var as, bs strings.Builder
		_, _ = a.Metrics.WriteJSON(&as), b.Metrics.WriteJSON(&bs)
		t.Errorf("%s: metric snapshots diverged:\n--- a ---\n%s--- b ---\n%s", label, &as, &bs)
	}
	if !reflect.DeepEqual(a.Clients, b.Clients) {
		t.Errorf("%s: client outcomes diverged:\n  a: %+v\n  b: %+v", label, a.Clients, b.Clients)
	}
}

// TestExploreWrapperIsInvisibleWithEmptyPrefix runs the same failover on
// the bare heap and under the explore wrapper decorating it, and demands
// the two runs are byte-identical.
func TestExploreWrapperIsInvisibleWithEmptyPrefix(t *testing.T) {
	bare := runExploreDiff(t, nil)
	wrapped := runExploreDiff(t, func() sim.Scheduler {
		return explore.NewScheduler(nil, nil)
	})
	demandIdentical(t, "bare heap vs wrapped heap", bare, wrapped)
}

// TestExploreWrapperForcedPrefixIsDeterministic forces a fixed non-empty
// choice sequence and demands (a) the run reproduces exactly on rerun and
// (b) the recorded choices reproduce too.
func TestExploreWrapperForcedPrefixIsDeterministic(t *testing.T) {
	prefix := []int{1, 0, 2, 1, 1, 0, 3}
	run := func() (*chaos.RunResult, []explore.Choice) {
		var sched *explore.Scheduler
		res := runExploreDiff(t, func() sim.Scheduler {
			sched = explore.NewScheduler(nil, prefix)
			return sched
		})
		return res, sched.Choices()
	}

	h1, c1 := run()
	h2, c2 := run()

	demandIdentical(t, "forced heap, rerun", h1, h2)
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("recorded choices diverged across reruns: %d vs %d", len(c1), len(c2))
	}
	if len(c1) == 0 {
		t.Fatalf("run recorded no tie-break choices; the differential proves nothing")
	}
	for i, ch := range c1 {
		if ch.N < 2 || ch.Picked < 0 || ch.Picked >= ch.N {
			t.Fatalf("choice %d malformed: %+v", i, ch)
		}
	}
}
