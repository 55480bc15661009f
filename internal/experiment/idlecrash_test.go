package experiment

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// TestIdleAppCrashUndetectedWithoutWatchdog reproduces the blind spot
// §4.2.1 concedes: "if there is no activity on the connection, failure
// detection may be delayed … detected when the connection is used again."
// An echo session goes idle after a burst of rounds, the primary's
// application crashes silently during the idle period, and no detector
// notices for the whole of it.
func TestIdleAppCrashUndetectedWithoutWatchdog(t *testing.T) {
	tb := Build(Options{Seed: 81})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	pSrv := app.NewEchoServer("primary/app", tb.Tracer)
	tb.PrimaryNode.OnAccept = pSrv.Accept
	tb.BackupNode.OnAccept = app.NewEchoServer("backup/app", tb.Tracer).Accept
	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 60, 512, tb.Tracer)
	cl.Gap = 2 * time.Millisecond
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	// Quick rounds until t=200ms, then 20 s between rounds: the crash at
	// t=1s falls in a gap the TCP layer sees no activity in.
	tb.Sim.Schedule(200*time.Millisecond, func() { cl.Gap = 20 * time.Second })
	tb.Sim.Schedule(time.Second, pSrv.CrashSilent)
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if tb.Tracer.Has(trace.KindSuspect) {
		t.Fatalf("failure detected with no activity — unexpected:\n%s", tailStr(tb.Tracer.Dump()))
	}
	if tb.BackupNode.State() != sttcp.StateActive {
		t.Fatalf("backup state %v during idle period", tb.BackupNode.State())
	}
}
