package experiment

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// witnessEchoFixture builds the three-replica topology with an echo
// workload on all three nodes.
func witnessEchoFixture(t *testing.T, seed int64, withWitness bool) (*Testbed, *app.EchoServer, *app.EchoServer, *app.EchoClient) {
	t.Helper()
	tb := Build(Options{Seed: seed, WithWitness: withWitness})
	err := tb.StartSTTCP(0, func(c *sttcp.Config) {
		c.MaxDelayFIN = 15 * time.Second
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	pSrv := app.NewEchoServer("primary/app", tb.Tracer)
	bSrv := app.NewEchoServer("backup/app", tb.Tracer)
	tb.PrimaryNode.OnAccept = pSrv.Accept
	tb.BackupNode.OnAccept = bSrv.Accept
	if withWitness {
		wSrv := app.NewEchoServer("witness/app", tb.Tracer)
		tb.WitnessNode.OnAccept = wSrv.Accept
	}
	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 1500, 1024, tb.Tracer)
	cl.Gap = 5 * time.Millisecond
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	return tb, pSrv, bSrv, cl
}

// TestWitnessSpeedsUpBackupFINConflict: the backup's application crashes
// with cleanup (its lone FIN is the Table 1 row 3B conflict). Without a
// witness the primary needs the lag detector (~1.5 s here); with the
// witness's vote the conflict resolves in about three heartbeat periods (600 ms).
func TestWitnessSpeedsUpBackupFINConflict(t *testing.T) {
	detect := func(withWitness bool) (time.Duration, *Testbed) {
		tb, _, bSrv, cl := witnessEchoFixture(t, 101, withWitness)
		injectAt := tb.Sim.Now().Add(2 * time.Second)
		tb.Sim.At(injectAt, func() { bSrv.CrashCleanup(false) })
		if err := tb.Run(5 * time.Minute); err != nil {
			t.Fatalf("run: %v", err)
		}
		if !cl.Done || cl.Err != nil {
			t.Fatalf("client (witness=%v): done=%v err=%v", withWitness, cl.Done, cl.Err)
		}
		if tb.PrimaryNode.State() != sttcp.StateNonFT {
			t.Fatalf("primary state %v (witness=%v), reason=%q", tb.PrimaryNode.State(), withWitness, tb.PrimaryNode.Verdict())
		}
		e, ok := tb.Tracer.First(trace.KindShutdownPeer)
		if !ok {
			t.Fatalf("no recovery action (witness=%v)", withWitness)
		}
		return e.Time.Sub(injectAt), tb
	}
	without, _ := detect(false)
	with, tb := detect(true)
	if with >= without {
		t.Fatalf("witness did not speed up the 3B conflict: %v vs %v", with, without)
	}
	if with > time.Second {
		t.Fatalf("majority resolution took %v, want ≲ 2× the 600 ms majority delay", with)
	}
	t.Logf("3B conflict resolved: without witness %v, with witness %v (reason: %s)",
		without, with, tb.PrimaryNode.Verdict())
}

// TestWitnessSpeedsUpPrimaryFINConflict: the primary's application crashes
// with cleanup (row 3P). With the witness agreeing that no close is due,
// the primary reports itself failed after the majority delay and the backup
// takes over — far faster than the quiet-connection lag path.
func TestWitnessSpeedsUpPrimaryFINConflict(t *testing.T) {
	detect := func(withWitness bool) time.Duration {
		tb, pSrv, _, cl := witnessEchoFixture(t, 102, withWitness)
		injectAt := tb.Sim.Now().Add(2 * time.Second)
		tb.Sim.At(injectAt, func() { pSrv.CrashCleanup(false) })
		if err := tb.Run(5 * time.Minute); err != nil {
			t.Fatalf("run: %v", err)
		}
		if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
			t.Fatalf("client (witness=%v): done=%v err=%v", withWitness, cl.Done, cl.Err)
		}
		if tb.BackupNode.State() != sttcp.StateTakenOver {
			t.Fatalf("backup state %v (witness=%v)", tb.BackupNode.State(), withWitness)
		}
		e, ok := tb.Tracer.First(trace.KindTakeover)
		if !ok {
			t.Fatalf("no takeover (witness=%v)", withWitness)
		}
		return e.Time.Sub(injectAt)
	}
	without := detect(false)
	with := detect(true)
	if with >= without {
		t.Fatalf("witness did not speed up the 3P conflict: %v vs %v", with, without)
	}
	if with > 2*time.Second {
		t.Fatalf("majority takeover took %v", with)
	}
	t.Logf("3P conflict resolved: without witness %v, with witness %v", without, with)
}

// TestWitnessNoFalsePositiveOnNormalClose: with all three replicas
// healthy, sessions open and close normally and nobody is shot.
func TestWitnessNoFalsePositiveOnNormalClose(t *testing.T) {
	tb := Build(Options{Seed: 103, WithWitness: true})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	pSrv, bSrv := tb.Server("primary"), tb.Server("backup")
	pSrv.(*app.DataServer).CloseAfterServe = true
	bSrv.(*app.DataServer).CloseAfterServe = true
	wSrv := app.NewDataServer("witness/app", tb.Tracer)
	wSrv.CloseAfterServe = true
	tb.WitnessNode.OnAccept = wSrv.Accept

	for i := 0; i < 3; i++ {
		cl := app.NewStreamClient(app.ClientConfig{
			Name: "client/app", Stack: tb.Client.TCP(),
			Service: ServiceAddr, Port: ServicePort,
			Request: 512 << 10, Tracer: tb.Tracer,
		})
		cl.OnDone = func(err error) {
			if err != nil {
				t.Errorf("transfer: %v", err)
			}
		}
		if err := cl.Start(); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if err := tb.Run(5 * time.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	if tb.PrimaryNode.State() != sttcp.StateActive || tb.BackupNode.State() != sttcp.StateActive {
		t.Fatalf("states %v/%v after normal closes (primary reason=%q)",
			tb.PrimaryNode.State(), tb.BackupNode.State(), tb.PrimaryNode.Verdict())
	}
	if tb.Tracer.Has(trace.KindShutdownPeer) {
		t.Fatalf("someone was shot during normal operation:\n%s", tailStr(tb.Tracer.Dump()))
	}
}

// TestWitnessCrashIsHarmless: losing the witness must not disturb the
// pairwise pair, and a later primary crash still fails over normally.
func TestWitnessCrashIsHarmless(t *testing.T) {
	tb, _, _, cl := witnessEchoFixture(t, 104, true)
	tb.Sim.Schedule(time.Second, tb.WitnessHost.CrashHW)
	tb.Sim.Schedule(3*time.Second, tb.Primary.CrashHW)
	if err := tb.Run(5 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if tb.BackupNode.State() != sttcp.StateTakenOver {
		t.Fatalf("backup state %v after primary crash", tb.BackupNode.State())
	}
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		t.Fatalf("client: done=%v err=%v rounds=%d", cl.Done, cl.Err, cl.RoundsDone)
	}
}
