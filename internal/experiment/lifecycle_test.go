package experiment

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// TestRepeatedFailoverCycles runs three full crash→takeover→reboot→rejoin
// generations on one testbed, with a verified transfer surviving each
// crash. The service endpoint never changes; the machines alternate roles.
func TestRepeatedFailoverCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle soak skipped in -short")
	}
	tb := Build(Options{Seed: 131})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	// Application factory: one fresh deterministic replica per node.
	mkApp := func(name string) func(*tcp.Conn) {
		return app.NewDataServer(name, tb.Tracer).Accept
	}
	tb.PrimaryNode.OnAccept = mkApp("primary/app")
	tb.BackupNode.OnAccept = mkApp("backup/app")

	lc := NewLifecycle(tb)
	for gen := 0; gen < 3; gen++ {
		// A transfer that the mid-flight crash must not break.
		cl := app.NewStreamClient(app.ClientConfig{
			Name: "client/app", Stack: tb.Client.TCP(),
			Service: ServiceAddr, Port: ServicePort,
			Request: 4 << 20, Tracer: tb.Tracer,
		})
		if err := cl.Start(); err != nil {
			t.Fatalf("gen %d: client: %v", gen, err)
		}
		tb.Sim.Schedule(200*time.Millisecond, func() {
			tb.inject(Fault{Kind: FaultCrash, Host: lc.PrimaryHost().Name()})
		})
		if err := tb.Run(10 * time.Second); err != nil {
			t.Fatalf("gen %d: run: %v", gen, err)
		}
		if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
			t.Fatalf("gen %d: transfer: done=%v err=%v received=%d\n%s",
				gen, cl.Done, cl.Err, cl.Received, tailStr(tb.Tracer.Dump()))
		}
		if lc.BackupNode().State() != sttcp.StateTakenOver {
			t.Fatalf("gen %d: survivor state %v", gen, lc.BackupNode().State())
		}
		if err := lc.Reintegrate(mkApp); err != nil {
			t.Fatalf("gen %d: reintegrate: %v", gen, err)
		}
		// Settle and verify the fresh pair is healthy.
		suspectsBefore := tb.Tracer.Count(trace.KindSuspect)
		if err := tb.Run(2 * time.Second); err != nil {
			t.Fatalf("gen %d: settle: %v", gen, err)
		}
		if got := tb.Tracer.Count(trace.KindSuspect); got != suspectsBefore {
			t.Fatalf("gen %d: reintegration raised suspicion\n%s", gen, tailStr(tb.Tracer.Dump()))
		}
		if lc.PrimaryNode().State() != sttcp.StateActive {
			t.Fatalf("gen %d: new primary state %v", gen, lc.PrimaryNode().State())
		}
	}
	if lc.Generations != 3 {
		t.Fatalf("generations = %d", lc.Generations)
	}
	if got := tb.Tracer.Count(trace.KindTakeover); got != 3 {
		t.Fatalf("takeovers = %d, want 3", got)
	}
	// A final failure-free transfer on the 4th-generation pair.
	cl, err := tb.StartClient("client/app", Workload{Bytes: 4 << 20})
	if err != nil {
		t.Fatalf("final transfer: %v", err)
	}
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatalf("final transfer: %v", err)
	}
	if !app.Completed(cl) {
		t.Fatalf("final transfer failed after %s", cl.Progress())
	}
}
