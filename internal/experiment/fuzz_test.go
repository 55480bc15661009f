package experiment

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/sttcp"
)

// The crash-instant sweep formerly here (TestFailoverFuzz) now lives in
// failover_chaos_test.go as TestFailoverChaos, driven by the chaos harness
// so every run is judged by the full invariant registry.

// TestTransientFaultFuzz sweeps short inbound-drop windows on either
// server's link across random instants; none may cause a failover, and the
// client must always complete (Table 1 row 5 generalised).
func TestTransientFaultFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep skipped in -short")
	}
	rng := rand.New(rand.NewSource(7))
	const runs = 16
	for i := 0; i < runs; i++ {
		seed := int64(2000 + i)
		at := time.Duration(rng.Int63n(int64(1500 * time.Millisecond)))
		dur := time.Duration(rng.Int63n(int64(350*time.Millisecond))) + 50*time.Millisecond
		where := "primary"
		if rng.Intn(2) == 0 {
			where = "backup"
		}
		t.Run(where+"@"+at.Round(time.Millisecond).String(), func(t *testing.T) {
			tb := Build(Options{Seed: seed})
			if err := tb.StartSTTCP(0, nil); err != nil {
				t.Fatalf("start: %v", err)
			}
			tb.AttachServers(true)
			cl, err := tb.StartClient("client/app", Workload{Echo: true, Rounds: 600, MsgSize: 1024, Gap: 3 * time.Millisecond})
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			strike, err := tb.Arm(Fault{Kind: FaultDrop, Host: where, Dur: dur})
			if err != nil {
				t.Fatalf("arm: %v", err)
			}
			tb.Sim.At(sim.Epoch.Add(at), func() { _ = strike() })
			if err := tb.Run(5 * time.Minute); err != nil {
				t.Fatalf("run: %v", err)
			}
			if done, bad, cerr := cl.Outcome(); !app.Completed(cl) {
				t.Fatalf("drop %v@%v on %s: done=%v err=%v verify failures=%d, %s\n%s",
					dur, at, where, done, cerr, bad, cl.Progress(), tailStr(tb.Tracer.Dump()))
			}
			if tb.PrimaryNode.State() != sttcp.StateActive || tb.BackupNode.State() != sttcp.StateActive {
				t.Fatalf("transient %v@%v on %s caused a failover: primary=%v backup=%v reason=%q%q\n%s",
					dur, at, where, tb.PrimaryNode.State(), tb.BackupNode.State(),
					tb.PrimaryNode.Verdict(), tb.BackupNode.Verdict(),
					tailStr(tb.Tracer.Dump()))
			}
		})
	}
}
