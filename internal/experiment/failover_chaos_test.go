package experiment_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiment"
	"repro/internal/trace"
)

// TestFailoverChaos sweeps the crash instant across the whole life of a
// transfer — during the handshake, mid-stream, near completion — for both
// HW crashes and silent application crashes, expressed as hand-written
// chaos plans so the full invariant registry (stream integrity,
// single-transmitter, backup silence, latency bound, counter/trace
// consistency) judges every run, not just client completion. This is the
// transparency claim stress-tested against timing windows.
func TestFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep skipped in -short")
	}
	rng := rand.New(rand.NewSource(99))
	const runs = 24
	for i := 0; i < runs; i++ {
		seed := int64(1000 + i)
		crashAt := time.Duration(rng.Int63n(int64(1200 * time.Millisecond)))
		hwCrash := rng.Intn(2) == 0
		name, kind := "app", experiment.FaultAppCrashSilent
		if hwCrash {
			name, kind = "hw", experiment.FaultCrash
		}
		t.Run(name+"@"+crashAt.Round(time.Millisecond).String(), func(t *testing.T) {
			p := experiment.Plan{
				Clients: []experiment.Workload{{Bytes: 8 << 20, Gap: 3 * time.Millisecond}},
				Faults:  []experiment.Fault{{At: crashAt, Kind: kind, Host: "serving"}},
				Horizon: 5 * time.Minute,
			}
			p.Seed = seed
			res, err := chaos.Run(p, experiment.Options{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Failed() {
				t.Fatalf("crash=%s at %v violated invariants:\n%s", name, crashAt, res.Report())
			}
			// A HW crash is always detected (heartbeat loss). An
			// application crash that lands after the primary app
			// already wrote the whole response is unobservable —
			// TCP drains the send buffer regardless — so no
			// failover is required as long as the client finished.
			if hwCrash && !res.Trace.Has(trace.KindTakeover) {
				t.Fatalf("no takeover recorded for HW crash at %v", crashAt)
			}
		})
	}
}
