package experiment

import (
	"testing"
	"time"

	"repro/internal/sttcp"
	"repro/internal/tcp"
)

// blind stretches the heartbeat period and MaxDelayFIN to an hour, so no
// fault is detected within a run: the detectors tick at half the
// heartbeat period and a link times out after three.
func blind(c *sttcp.Config) { c.HBPeriod, c.MaxDelayFIN = time.Hour, time.Hour }

// fails re-runs a shrink candidate: it still fails if any invariant broke.
func fails(p Plan) (bool, error) {
	run, err := p.Run()
	if run == nil {
		return false, err
	}
	return len(run.Violations) > 0, nil
}

// built runs p, which must at least be set up.
func built(t *testing.T, p Plan) *Run {
	t.Helper()
	run, err := p.Run()
	if run == nil {
		t.Fatal(err)
	}
	return run
}

// broke reports whether the run broke the named invariant.
func broke(run *Run, name string) bool {
	for _, v := range run.Violations {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

// TestBlindDetectorsMissTheStarve starves the serving node of an echo
// service past the response SLO with the detectors blinded: no takeover
// answers it, which gray-detection-bound must report — on any plan, with
// no chaos harness in the run.
func TestBlindDetectorsMissTheStarve(t *testing.T) {
	run := built(t, Plan{
		Options: Options{Seed: 99},
		Mutate:  blind,
		Clients: []Workload{{Echo: true, Rounds: 1000, MsgSize: 512, Gap: 3 * time.Millisecond}},
		Faults:  []Fault{{At: time.Second, Kind: FaultStarve, Host: "serving", Scale: 500, Dur: 8 * time.Second}},
		Horizon: 30 * time.Second,
	})
	if !broke(run, "gray-detection-bound") {
		t.Fatalf("a starve no takeover answered went unreported: %v", run.Violations)
	}
}

// TestShrinkFindsUnsuppressedBackup proves the registry detects a real
// protocol bug and the shrinker isolates it: with the backup's output
// suppression sabotaged the client still sees a correct byte stream (the
// replica transmits identical data), so only backup-silence can catch it
// — and it needs no fault at all, so the plan shrinks to the bare client.
func TestShrinkFindsUnsuppressedBackup(t *testing.T) {
	unsuppress := func(run *Run) {
		n := run.Testbed.BackupNode
		accept := n.OnAccept
		n.OnAccept = func(c *tcp.Conn) {
			if n.State() == sttcp.StateActive {
				c.SetSuppressed(false)
			}
			accept(c)
		}
	}
	p := Plan{
		Options: Options{Seed: 123},
		Clients: []Workload{{Bytes: 2 << 20}},
		Faults:  []Fault{{At: 400 * time.Millisecond, Kind: FaultCrash, Host: "serving"}},
		Horizon: 30 * time.Second,
		Judge:   Judge{Watch: unsuppress},
	}
	if run := built(t, p); !broke(run, "backup-silence") {
		t.Fatalf("sabotaged suppression went undetected: %v", run.Violations)
	}
	shrunk, runs, err := Shrink(p, 50, fails)
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk.Faults) != 0 || len(shrunk.Clients) != 1 {
		t.Errorf("shrunk in %d runs to %d faults and %d clients, want the client alone", runs, len(shrunk.Faults), len(shrunk.Clients))
	}
}

// TestShrinkKeepsTheCrashBlindDetectorsMiss blinds the detectors, so a
// crash strands the client (client-integrity), and checks that the
// shrinker strips the decoy noise down to the client and the crash.
func TestShrinkKeepsTheCrashBlindDetectorsMiss(t *testing.T) {
	crash := Fault{At: time.Second, Kind: FaultCrash, Host: "serving"}
	p := Plan{
		Options: Options{Seed: 7},
		Mutate:  blind,
		Clients: []Workload{{Bytes: 32 << 20}},
		Faults: []Fault{
			{At: 100 * time.Millisecond, Kind: FaultDelay, Host: "client", Delay: 2 * time.Millisecond, Dur: 300 * time.Millisecond},
			{At: 150 * time.Millisecond, Kind: FaultDrop, Host: "standby", Dur: 80 * time.Millisecond},
			{At: 200 * time.Millisecond, Kind: FaultLoss, Host: "client", Rate: 0.05, Dur: 200 * time.Millisecond},
			// Past the decoy drop's output-commit window, and mid-transfer
			// (32 MiB take ≈3 s on the wire).
			crash,
		},
		Horizon: 12 * time.Second,
	}
	if run := built(t, p); !broke(run, "client-integrity") {
		t.Fatalf("blind detectors went undetected: %v", run.Violations)
	}
	shrunk, runs, err := Shrink(p, 50, fails)
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk.Faults) != 1 || shrunk.Faults[0] != crash || len(shrunk.Clients) != 1 {
		t.Errorf("shrunk in %d runs to faults %v and %d clients, want the client and the crash", runs, shrunk.Faults, len(shrunk.Clients))
	}
}

// TestShrinkSpendsItsBudget: a budget of 0 runs nothing and returns the
// plan as it was given.
func TestShrinkSpendsItsBudget(t *testing.T) {
	p := Plan{
		Clients: []Workload{{Bytes: 1 << 20}, {At: time.Second, Bytes: 1 << 20}},
		Faults:  []Fault{{At: time.Second, Kind: FaultCrash, Host: "serving"}},
	}
	shrunk, runs, err := Shrink(p, 0, func(Plan) (bool, error) {
		t.Fatal("a budget of 0 ran a candidate")
		return true, nil
	})
	if err != nil || runs != 0 || len(shrunk.Faults) != 1 || len(shrunk.Clients) != 2 {
		t.Errorf("Shrink with budget 0 = %d faults, %d clients after %d runs (%v), want the plan unchanged after 0",
			len(shrunk.Faults), len(shrunk.Clients), runs, err)
	}
}
