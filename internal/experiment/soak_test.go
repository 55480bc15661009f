package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// TestFullSystemSoak turns every optional component on at once — logger
// and witness — runs a mixed workload (bulk downloads plus a
// long-lived echo session), sprinkles transient network faults through the
// first phase, and finally crashes the primary. Everything must hold: no
// false failovers during the transient phase, a clean takeover at the
// crash, and every workload completing verified.
func TestFullSystemSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	tb := Build(Options{Seed: 111, WithLogger: true, WithWitness: true})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}

	// Replicated echo servers on all three nodes.
	pSrv := app.NewEchoServer("primary/app", tb.Tracer)
	bSrv := app.NewEchoServer("backup/app", tb.Tracer)
	wSrv := app.NewEchoServer("witness/app", tb.Tracer)
	tb.PrimaryNode.OnAccept = pSrv.Accept
	tb.BackupNode.OnAccept = bSrv.Accept
	tb.WitnessNode.OnAccept = wSrv.Accept

	// Workloads: one long echo session plus staggered bulk downloads.
	echo := app.NewEchoClient("client/echo", tb.Client.TCP(), ServiceAddr, ServicePort, 3000, 512, tb.Tracer)
	echo.Gap = 3 * time.Millisecond
	if err := echo.Start(); err != nil {
		t.Fatalf("echo: %v", err)
	}
	var clients []*app.EchoClient
	for i := 0; i < 4; i++ {
		cl := app.NewEchoClient("client/echo2", tb.Client.TCP(), ServiceAddr, ServicePort, 1500, 1024, tb.Tracer)
		cl.Gap = 7 * time.Millisecond
		delay := time.Duration(i) * 300 * time.Millisecond
		tb.Sim.Schedule(delay, func() {
			if err := cl.Start(); err != nil {
				t.Errorf("client start: %v", err)
			}
		})
		clients = append(clients, cl)
	}

	// Phase 1 (0–4s): transient faults that must all be absorbed.
	tb.Sim.Schedule(1200*time.Millisecond, func() { tb.Link("backup").DropFromBFor(250 * time.Millisecond) })
	tb.Sim.Schedule(2200*time.Millisecond, func() { tb.Link("primary").DropFromBFor(200 * time.Millisecond) })
	tb.Sim.Schedule(3100*time.Millisecond, func() { tb.Link("client").DropFromBFor(150 * time.Millisecond) })

	if err := tb.Run(4 * time.Second); err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	if tb.PrimaryNode.State() != sttcp.StateActive || tb.BackupNode.State() != sttcp.StateActive {
		t.Fatalf("transient phase caused a failover: primary=%v (%q) backup=%v (%q)",
			tb.PrimaryNode.State(), tb.PrimaryNode.Verdict(),
			tb.BackupNode.State(), tb.BackupNode.Verdict())
	}

	// Phase 2: the real crash.
	tb.Primary.CrashHW()
	if err := tb.Run(5 * time.Minute); err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	if tb.BackupNode.State() != sttcp.StateTakenOver {
		t.Fatalf("backup state %v after crash", tb.BackupNode.State())
	}
	if !echo.Done || echo.Err != nil || echo.VerifyFailures != 0 {
		t.Fatalf("echo session: done=%v err=%v rounds=%d\n%s",
			echo.Done, echo.Err, echo.RoundsDone, tailStr(tb.Tracer.Dump()))
	}
	for i, cl := range clients {
		if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
			t.Fatalf("client %d: done=%v err=%v rounds=%d", i, cl.Done, cl.Err, cl.RoundsDone)
		}
	}
	logged := false
	for _, e := range tb.Tracer.Filter(trace.KindGeneric) {
		logged = logged || strings.HasPrefix(e.Message, "logging client stream")
	}
	if !logged {
		t.Fatal("logger tracked no streams")
	}
}
