package experiment

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// strike performs f on tb now, failing the test if it cannot.
func strike(t *testing.T, tb *Testbed, f Fault) {
	t.Helper()
	act, err := tb.Arm(f)
	if err == nil {
		err = act()
	}
	if err != nil {
		t.Fatalf("%s: %v", f.Kind, err)
	}
}

// TestRepeatedFailoverCycles runs three full crash→takeover→rejoin
// generations on one testbed, with a verified transfer surviving each
// crash. The service endpoint never changes; the machines alternate roles.
func TestRepeatedFailoverCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("repair-loop soak skipped in -short")
	}
	tb := startedTestbed(t, Options{Seed: 131})
	for gen := 0; gen < 3; gen++ {
		// A transfer that the mid-flight crash must not break.
		cl, err := tb.StartClient("client/app", Workload{Bytes: 4 << 20})
		if err != nil {
			t.Fatalf("gen %d: client: %v", gen, err)
		}
		primary := tb.PrimaryNode.Host().Name()
		tb.Sim.Schedule(200*time.Millisecond, func() { strike(t, tb, Fault{Kind: FaultCrash, Host: primary}) })
		if err := tb.Run(10 * time.Second); err != nil {
			t.Fatalf("gen %d: run: %v", gen, err)
		}
		if !app.Completed(cl) {
			t.Fatalf("gen %d: transfer ended at %s\n%s", gen, cl.Progress(), tailStr(tb.Tracer.Dump()))
		}
		survivor := tb.BackupNode
		strike(t, tb, Fault{Kind: FaultRejoin})
		if tb.PrimaryNode != survivor || tb.BackupNode.Host().Name() != primary {
			t.Fatalf("gen %d: the rejoin did not swap the roles", gen)
		}
		// Settle and verify the fresh pair is healthy.
		suspectsBefore := tb.Tracer.Count(trace.KindSuspect)
		if err := tb.Run(2 * time.Second); err != nil {
			t.Fatalf("gen %d: settle: %v", gen, err)
		}
		if got := tb.Tracer.Count(trace.KindSuspect); got != suspectsBefore {
			t.Fatalf("gen %d: reintegration raised suspicion\n%s", gen, tailStr(tb.Tracer.Dump()))
		}
		if tb.Standby() == nil {
			t.Fatalf("gen %d: pair %v/%v after the rejoin", gen, tb.PrimaryNode.State(), tb.BackupNode.State())
		}
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

// TestRejoinRunsTheRunsConfig: the rejoined backup gets the config the run
// gave the first backup — heartbeat period, mutation, logger address — with
// only its peer changed. It used to get the default config.
func TestRejoinRunsTheRunsConfig(t *testing.T) {
	tb := Build(Options{Seed: 124, WithLogger: true})
	err := tb.StartSTTCP(100*time.Millisecond, func(c *sttcp.Config) {
		c.MaxDelayFIN, c.AppMaxLagTime = 10*time.Second, 3*time.Second
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	want := tb.BackupNode.Config()
	strike(t, tb, Fault{Kind: FaultCrash, Host: "primary"})
	if err := tb.Run(2 * time.Second); err != nil {
		t.Fatalf("failover: %v", err)
	}
	strike(t, tb, Fault{Kind: FaultRejoin})
	want.PeerAddr = BackupAddr
	if got := tb.BackupNode.Config(); got != want {
		t.Fatalf("rejoined backup's config\n%+v\nwant generation 1's with the survivor as peer\n%+v", got, want)
	}
}

// TestReintegrationDoubleFailover exercises the full repair lifecycle:
//
//  1. the primary crashes mid-transfer; the backup takes over (failover #1);
//  2. the crashed machine is rebooted and rejoins as the *new backup* of
//     the promoted server (EnableReplication + a fresh backup-role node);
//  3. a new client connection is accepted — now replicated again;
//  4. the promoted server crashes; the rejoined machine takes over
//     (failover #2) and the new connection survives transparently.
//
// The paper stops at a single failover; this is the obvious production
// question it leaves open ("what restores fault tolerance afterwards?").
func TestReintegrationDoubleFailover(t *testing.T) {
	tb := Build(Options{Seed: 121})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)

	// Phase 1: a transfer across the first failover.
	first := app.NewStreamClient(app.ClientConfig{
		Name: "client/first", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 4 << 20, Tracer: tb.Tracer,
	})
	if err := first.Start(); err != nil {
		t.Fatalf("first client: %v", err)
	}
	tb.Sim.Schedule(300*time.Millisecond, tb.Primary.CrashHW)
	if err := tb.Run(5 * time.Second); err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	if tb.BackupNode.State() != sttcp.StateTakenOver {
		t.Fatalf("no first takeover: %v", tb.BackupNode.State())
	}
	if !first.Done || first.Err != nil || first.VerifyFailures != 0 {
		t.Fatalf("first transfer: done=%v err=%v", first.Done, first.Err)
	}

	// Phase 2: repair and reintegration. The promoted node (on the old
	// backup machine) becomes the primary of a fresh pair; the rebooted
	// original primary machine hosts the new backup-role node.
	promoted := tb.BackupNode
	strike(t, tb, Fault{Kind: FaultRejoin})
	newBackup := tb.BackupNode

	// Give the fresh pair a moment of quiet operation; nothing may be
	// suspected during reintegration.
	before := tb.Tracer.Count(trace.KindSuspect)
	if err := tb.Run(2 * time.Second); err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	if got := tb.Tracer.Count(trace.KindSuspect); got != before {
		t.Fatalf("reintegration caused %d new suspicion(s):\n%s", got-before, tailStr(tb.Tracer.Dump()))
	}
	if promoted.State() != sttcp.StateActive || newBackup.State() != sttcp.StateActive {
		t.Fatalf("pair not active after reintegration: %v/%v", promoted.State(), newBackup.State())
	}

	// Phase 3: a new, replicated connection across the second failover.
	second := app.NewStreamClient(app.ClientConfig{
		Name: "client/second", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 8 << 20, Tracer: tb.Tracer,
	})
	if err := second.Start(); err != nil {
		t.Fatalf("second client: %v", err)
	}
	tb.Sim.Schedule(300*time.Millisecond, tb.Backup.CrashHW) // kill the promoted server
	if err := tb.Run(5 * time.Minute); err != nil {
		t.Fatalf("phase 3: %v", err)
	}
	if newBackup.State() != sttcp.StateTakenOver {
		t.Fatalf("no second takeover: %v (reason=%q)\n%s",
			newBackup.State(), newBackup.Verdict(), tailStr(tb.Tracer.Dump()))
	}
	if !second.Done || second.Err != nil || second.VerifyFailures != 0 {
		t.Fatalf("second transfer across failover #2: done=%v err=%v received=%d\n%s",
			second.Done, second.Err, second.Received, tailStr(tb.Tracer.Dump()))
	}
	if takeovers := tb.Tracer.Count(trace.KindTakeover); takeovers != 2 {
		t.Fatalf("takeovers = %d, want 2", takeovers)
	}
}

// TestReintegrationDriftNotedForNewPeer: the heartbeat-cadence drift note
// is once per peer, not once per node. The backup notes the skewed primary;
// after that primary crashes and rejoins as the survivor's new backup, its
// skewed clock must be noted again. A rejoin used to reset the drift
// estimator field by field and forget the once-only flag, so the survivor
// never reported clock skew again.
func TestReintegrationDriftNotedForNewPeer(t *testing.T) {
	tb := Build(Options{Seed: 123})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	survivor := tb.BackupNode
	notes := survivor.DriftNotes
	// The machine named primary runs 20% slow for 8 s: its heartbeats
	// arrive every 240 ms instead of 200.
	skewPrimaryMachine := func() {
		strike(t, tb, Fault{Kind: FaultClockSkew, Host: "primary", Dur: 8 * time.Second, Scale: 1.2})
	}

	skewPrimaryMachine()
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatalf("first pair: %v", err)
	}
	if got := notes(); got != 1 {
		t.Fatalf("backup noted the skewed primary %d time(s), want 1\n%s", got, tailStr(tb.Tracer.Dump()))
	}

	strike(t, tb, Fault{Kind: FaultCrash, Host: "primary"})
	if err := tb.Run(2 * time.Second); err != nil {
		t.Fatalf("failover: %v", err)
	}
	strike(t, tb, Fault{Kind: FaultRejoin})
	skewPrimaryMachine() // now the survivor's new backup
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatalf("rejoined pair: %v", err)
	}
	if got := notes(); got != 2 {
		t.Fatalf("survivor noted drift %d time(s) across two skewed peers, want 2\n%s", got, tailStr(tb.Tracer.Dump()))
	}
}

// TestReintegrationLocalOnlyConnections checks the stated limitation: a
// connection accepted while the server ran alone is served fine but is not
// replicated to the rejoined backup, and the heartbeat does not advertise
// it.
func TestReintegrationLocalOnlyConnections(t *testing.T) {
	tb := Build(Options{Seed: 122})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	tb.Sim.Schedule(100*time.Millisecond, tb.Primary.CrashHW)
	if err := tb.Run(2 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}

	// A connection opened while the promoted server runs alone.
	lone := app.NewStreamClient(app.ClientConfig{
		Name: "client/lone", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 64 << 20, Tracer: tb.Tracer,
	})
	if err := lone.Start(); err != nil {
		t.Fatalf("lone client: %v", err)
	}
	if err := tb.Run(500 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Rejoin.
	strike(t, tb, Fault{Kind: FaultRejoin})
	newBackup := tb.BackupNode
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The lone transfer completes on the promoted server...
	if !lone.Done || lone.Err != nil || lone.VerifyFailures != 0 {
		t.Fatalf("lone transfer: done=%v err=%v", lone.Done, lone.Err)
	}
	// ...but the rejoined backup never saw it.
	if _, ok := newBackup.Host().TCP().Lookup(serverEnd(lone.Conn())); ok {
		t.Fatal("rejoined backup adopted the local-only connection")
	}
	// And nobody was suspected.
	if tb.Tracer.Count(trace.KindSuspect) > 1 { // 1 from the original crash
		t.Fatalf("local-only connection caused suspicion:\n%s", tailStr(tb.Tracer.Dump()))
	}
}
