package experiment

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// TestDemo2Upload checks the client-as-sender variant: failover time still
// grows with the heartbeat period when the post-crash restart is driven by
// the client's retransmission backoff.
func TestDemo2Upload(t *testing.T) {
	periods := []time.Duration{200 * time.Millisecond, time.Second}
	runs, err := runDemo2Upload(Options{Seed: 71}, periods)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	results := readFailovers(runs)
	for _, r := range results {
		if !r.Completed {
			t.Fatalf("hb=%v: echo did not complete", r.HBPeriod)
		}
		if r.DetectionTime < 2*r.HBPeriod || r.DetectionTime > 5*r.HBPeriod {
			t.Errorf("hb=%v: detection %v outside [2p,5p]", r.HBPeriod, r.DetectionTime)
		}
		t.Logf("hb=%v detect=%v failover=%v", r.HBPeriod, r.DetectionTime, r.FailoverTime)
	}
	if results[1].FailoverTime <= results[0].FailoverTime {
		t.Errorf("upload failover did not grow with HB period: %v then %v",
			results[0].FailoverTime, results[1].FailoverTime)
	}
}

// TestClientAbortNoFailover checks that a *client*-initiated RST simply
// closes the replicated connection on both servers without any failure
// suspicion — the failure detectors must not confuse a departing client
// with a dead peer.
func TestClientAbortNoFailover(t *testing.T) {
	tb := Build(Options{Seed: 72})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 64 << 20, Tracer: tb.Tracer,
	})
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	tb.Sim.Schedule(500*time.Millisecond, func() { cl.Conn().Abort() })
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if tb.Tracer.Has(trace.KindSuspect) {
		t.Fatalf("client abort caused a failure suspicion:\n%s", tailStr(tb.Tracer.Dump()))
	}
	if tb.PrimaryNode.State() != sttcp.StateActive || tb.BackupNode.State() != sttcp.StateActive {
		t.Fatalf("states %v/%v after client abort", tb.PrimaryNode.State(), tb.BackupNode.State())
	}
	if n := len(tb.Primary.TCP().Conns()); n != 0 {
		t.Fatalf("primary still has %d connection(s) after client RST", n)
	}
	if n := len(tb.Backup.TCP().Conns()); n != 0 {
		t.Fatalf("backup still has %d connection(s) after client RST", n)
	}
}

// TestClientCleanCloseNoFailover checks a client-initiated FIN mid-transfer:
// the servers mirror the close and stay active.
func TestClientCleanCloseNoFailover(t *testing.T) {
	tb := Build(Options{Seed: 73})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	pSrv := app.NewEchoServer("primary/app", tb.Tracer)
	bSrv := app.NewEchoServer("backup/app", tb.Tracer)
	tb.PrimaryNode.OnAccept = pSrv.Accept
	tb.BackupNode.OnAccept = bSrv.Accept
	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 100, 512, tb.Tracer)
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := tb.Run(time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cl.Done || cl.Err != nil {
		t.Fatalf("echo client: done=%v err=%v", cl.Done, cl.Err)
	}
	if tb.Tracer.Has(trace.KindSuspect) {
		t.Fatalf("clean close caused a suspicion:\n%s", tailStr(tb.Tracer.Dump()))
	}
}

// TestFailoverDuringHandshake crashes the primary in the brief window
// between the client's SYN and its first data. The embryonic replica on
// the backup (suppressed SYN-ACK, ISN adopted from the announcement) must
// carry the connection through takeover.
func TestFailoverDuringHandshake(t *testing.T) {
	tb := Build(Options{Seed: 74})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	// Crash the primary ~1ms after the dial: SYN, announcement, and
	// SYN-ACK have flown; the request may or may not have.
	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 1 << 20, Tracer: tb.Tracer,
	})
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	tb.Sim.Schedule(time.Millisecond, tb.Primary.CrashHW)
	if err := tb.Run(2 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		t.Fatalf("client across handshake-window failover: done=%v err=%v\n%s",
			cl.Done, cl.Err, tailStr(tb.Tracer.Dump()))
	}
	if tb.BackupNode.State() != sttcp.StateTakenOver {
		t.Fatalf("backup state %v", tb.BackupNode.State())
	}
}

// TestNewConnectionsAfterTakeover checks the promoted backup keeps serving:
// a second client connects after the failover completes.
func TestNewConnectionsAfterTakeover(t *testing.T) {
	tb := Build(Options{Seed: 75})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	first := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 2 << 20, Tracer: tb.Tracer,
	})
	if err := first.Start(); err != nil {
		t.Fatalf("first client: %v", err)
	}
	tb.Sim.Schedule(300*time.Millisecond, tb.Primary.CrashHW)

	var second *app.StreamClient
	tb.Sim.Schedule(3*time.Second, func() {
		second = app.NewStreamClient(app.ClientConfig{
			Name: "client/app2", Stack: tb.Client.TCP(),
			Service: ServiceAddr, Port: ServicePort,
			Request: 2 << 20, Tracer: tb.Tracer,
		})
		if err := second.Start(); err != nil {
			t.Errorf("second client: %v", err)
		}
	})
	if err := tb.Run(2 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !first.Done || first.Err != nil {
		t.Fatalf("first client: done=%v err=%v", first.Done, first.Err)
	}
	if second == nil || !second.Done || second.Err != nil {
		t.Fatalf("second client (post-takeover): %+v", second)
	}
	if second.VerifyFailures != 0 {
		t.Fatalf("post-takeover connection corrupted")
	}
}

// TestConnectionChurnThenFailover opens and cleanly closes a series of
// connections under replication, then crashes the primary while a final
// batch is active; the closed connections must have been pruned from the
// heartbeat and the active ones must survive.
func TestConnectionChurnThenFailover(t *testing.T) {
	tb := Build(Options{Seed: 76})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	pSrv, bSrv := tb.Server("primary"), tb.Server("backup")
	pSrv.(*app.DataServer).CloseAfterServe = true
	bSrv.(*app.DataServer).CloseAfterServe = true

	// Ten short-lived transfers back to back.
	done := 0
	var spawn func(i int)
	spawn = func(i int) {
		if i >= 10 {
			return
		}
		cl := app.NewStreamClient(app.ClientConfig{
			Name: "client/app", Stack: tb.Client.TCP(),
			Service: ServiceAddr, Port: ServicePort,
			Request: 64 << 10, Tracer: tb.Tracer,
		})
		cl.OnDone = func(err error) {
			if err != nil {
				t.Errorf("churn client %d: %v", i, err)
			}
			done++
			spawn(i + 1)
		}
		if err := cl.Start(); err != nil {
			t.Errorf("churn client %d start: %v", i, err)
		}
	}
	spawn(0)
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatalf("run churn: %v", err)
	}
	if done != 10 {
		t.Fatalf("only %d/10 churn transfers completed", done)
	}
	// The replication state must not leak closed connections.
	if n := len(tb.PrimaryNode.Conns()); n > 1 {
		t.Fatalf("primary node still tracks %d connections after churn", n)
	}

	// Now a live transfer across a crash.
	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 4 << 20, Tracer: tb.Tracer,
	})
	if err := cl.Start(); err != nil {
		t.Fatalf("final client: %v", err)
	}
	tb.Sim.Schedule(200*time.Millisecond, tb.Primary.CrashHW)
	if err := tb.Run(2 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		t.Fatalf("post-churn failover transfer: done=%v err=%v", cl.Done, cl.Err)
	}
}

// TestTakeoverStateIntrospection checks the takeover leaves the promoted
// connections unsuppressed and the node's bookkeeping coherent.
func TestTakeoverStateIntrospection(t *testing.T) {
	tb := Build(Options{Seed: 77})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 8 << 20, Tracer: tb.Tracer,
	})
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	tb.Sim.Schedule(300*time.Millisecond, tb.Primary.CrashHW)
	// Stop just past the takeover (detection ≈ 3×200 ms after the
	// crash) but before the transfer finishes and the client closes.
	if err := tb.Run(1100 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if tb.BackupNode.State() != sttcp.StateTakenOver {
		t.Fatalf("backup state %v", tb.BackupNode.State())
	}
	if tb.BackupNode.FailoverReason == "" {
		t.Fatal("no failover reason recorded")
	}
	for _, c := range tb.BackupNode.Conns() {
		if c.Suppressed() {
			t.Fatalf("connection %v still suppressed after takeover", c.ID())
		}
		if c.State() != tcp.StateEstablished {
			t.Fatalf("connection %v in state %v right after takeover", c.ID(), c.State())
		}
	}
	if !tb.Primary.Crashed() {
		t.Fatal("primary not powered down")
	}
}
