package experiment

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// TestNormalCloseIsPrompt checks that a failure-free session closes
// without engaging MaxDelayFIN: the primary's gated FIN is released as
// soon as agreement is established (client FIN or backup FIN via the
// heartbeat), not after the one-minute delay.
func TestNormalCloseIsPrompt(t *testing.T) {
	tb := Build(Options{Seed: 51})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	pSrv, bSrv := tb.Server("primary"), tb.Server("backup")
	pSrv.(*app.DataServer).CloseAfterServe = true
	bSrv.(*app.DataServer).CloseAfterServe = true

	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 1 << 20, Tracer: tb.Tracer,
	})
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cl.Done || cl.Err != nil {
		t.Fatalf("client: done=%v err=%v", cl.Done, cl.Err)
	}
	// Transfer of 1 MiB at 100 Mbit/s takes well under a second; a
	// normal close must not stretch the session toward MaxDelayFIN.
	if cl.Elapsed() > 5*time.Second {
		t.Fatalf("session took %v — the FIN was probably delayed by MaxDelayFIN", cl.Elapsed())
	}
	if tb.Tracer.Has(trace.KindSuspect) {
		t.Fatalf("failure suspected during a failure-free session:\n%s", tb.Tracer.Dump())
	}
	if tb.PrimaryNode.State() != sttcp.StateActive || tb.BackupNode.State() != sttcp.StateActive {
		t.Fatalf("nodes: %v/%v", tb.PrimaryNode.State(), tb.BackupNode.State())
	}
}

// TestMultiConnectionFailover crashes the primary while three independent
// client transfers are in flight; all three must survive the takeover.
func TestMultiConnectionFailover(t *testing.T) {
	tb := Build(Options{Seed: 52})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)

	var clients []*app.StreamClient
	for i := 0; i < 3; i++ {
		cl := app.NewStreamClient(app.ClientConfig{
			Name: "client/app", Stack: tb.Client.TCP(),
			Service: ServiceAddr, Port: ServicePort,
			Request: 4 << 20, Tracer: tb.Tracer,
		})
		if err := cl.Start(); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		clients = append(clients, cl)
	}
	tb.Sim.Schedule(400*time.Millisecond, tb.Primary.CrashHW)
	if err := tb.Run(5 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, cl := range clients {
		if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
			t.Fatalf("client %d: done=%v err=%v verify=%d", i, cl.Done, cl.Err, cl.VerifyFailures)
		}
	}
	if e, ok := tb.Tracer.First(trace.KindTakeover); !ok {
		t.Fatal("no takeover")
	} else if e.Value != 0 && e.Value != 3 {
		t.Logf("takeover event: %v", e)
	}
	if tb.BackupNode.State() != sttcp.StateTakenOver {
		t.Fatalf("backup state %v", tb.BackupNode.State())
	}
}

// TestReplicaReconstructionFromHeartbeat drops all frames toward the
// backup across connection setup, so the backup misses the SYN *and* the
// announcement. The replica must be rebuilt from the heartbeat
// (ForceEstablish) and the missed bytes fetched through the recovery
// protocol; a later primary crash must still fail over transparently.
func TestReplicaReconstructionFromHeartbeat(t *testing.T) {
	tb := Build(Options{Seed: 53})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)

	// Blind the backup around connection setup.
	tb.Link("backup").DropFromBFor(150 * time.Millisecond)

	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 16 << 20, Tracer: tb.Tracer,
	})
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	tb.Sim.Schedule(800*time.Millisecond, tb.Primary.CrashHW)
	if err := tb.Run(5 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !tb.Tracer.Has(trace.KindByteRecovery) {
		t.Fatalf("no recovery activity recorded:\n%s", tb.Tracer.Dump())
	}
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		t.Fatalf("client across reconstruction+failover: done=%v err=%v verify=%d\n%s",
			cl.Done, cl.Err, cl.VerifyFailures, tb.Tracer.Dump())
	}
	if tb.BackupNode.State() != sttcp.StateTakenOver {
		t.Fatalf("backup state %v", tb.BackupNode.State())
	}
}

// TestSerialLinkFailureAlone cuts only the serial cable: the UDP heartbeat
// keeps both nodes connected, so a single link failure must not trigger
// any recovery action.
func TestSerialLinkFailureAlone(t *testing.T) {
	tb := Build(Options{Seed: 54})
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
	tb.Sim.Schedule(200*time.Millisecond, func() {
		tb.SerialPrimary.SetDown(true)
		tb.SerialBackup.SetDown(true)
	})
	if err := tb.Run(2 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cl.Done || cl.Err != nil {
		t.Fatalf("client: done=%v err=%v", cl.Done, cl.Err)
	}
	if tb.Tracer.Has(trace.KindSuspect) {
		t.Fatalf("serial-only failure caused a suspicion:\n%s", tb.Tracer.Dump())
	}
	if tb.PrimaryNode.State() != sttcp.StateActive || tb.BackupNode.State() != sttcp.StateActive {
		t.Fatalf("nodes: %v/%v", tb.PrimaryNode.State(), tb.BackupNode.State())
	}
}

// TestTapAblationNICLoad compares the backup NIC's receive volume between
// the enhanced design (heartbeat state exchange) and the pre-enhancement
// design in which the backup also taps primary→client traffic — the
// overload §3 of the paper reports having fixed.
func TestTapAblationNICLoad(t *testing.T) {
	run := func(tap bool) int64 {
		tb := Build(Options{Seed: 55, TapBothDirections: tap})
		if err := tb.StartSTTCP(0, nil); err != nil {
			t.Fatalf("start: %v", err)
		}
		tb.AttachServers(false)
		cl := app.NewStreamClient(app.ClientConfig{
			Name: "client/app", Stack: tb.Client.TCP(),
			Service: ServiceAddr, Port: ServicePort,
			Request: 16 << 20, Tracer: tb.Tracer,
		})
		if err := cl.Start(); err != nil {
			t.Fatalf("client: %v", err)
		}
		if err := tb.Run(2 * time.Minute); err != nil {
			t.Fatalf("run: %v", err)
		}
		if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
			t.Fatalf("tap=%v transfer failed: %v", tap, cl.Err)
		}
		return tb.Backup.NIC().RxBytes
	}
	enhanced := run(false)
	old := run(true)
	if old < 2*enhanced {
		t.Fatalf("tapping both directions should multiply backup NIC load: enhanced=%d old=%d", enhanced, old)
	}
	t.Logf("backup NIC rx: enhanced=%dKB old=%dKB (%.1fx)", enhanced>>10, old>>10, float64(old)/float64(enhanced))
}

// TestBackupFINCommunicatedImmediately checks the §4.2.2 requirement: when
// the backup's application closes, the primary learns within roughly one
// RTT via an out-of-schedule heartbeat rather than the next periodic one.
func TestBackupFINCommunicatedImmediately(t *testing.T) {
	tb := Build(Options{Seed: 56})
	// A huge HB period makes the periodic path useless: only SendNow
	// can communicate the FIN in time.
	if err := tb.StartSTTCP(5*time.Second, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	pSrv := app.NewEchoServer("primary/app", tb.Tracer)
	bSrv := app.NewEchoServer("backup/app", tb.Tracer)
	tb.PrimaryNode.OnAccept = pSrv.Accept
	tb.BackupNode.OnAccept = bSrv.Accept

	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 10000, 512, tb.Tracer)
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	injectAt := tb.Sim.Now().Add(time.Second)
	tb.Sim.At(injectAt, func() { bSrv.CrashCleanup(false) })
	if err := tb.Run(2500 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	e, ok := tb.Tracer.First(trace.KindFINSuppressed)
	if !ok {
		t.Fatalf("primary never observed the backup FIN disagreement:\n%s", tailStr(tb.Tracer.Dump()))
	}
	if lat := e.Time.Sub(injectAt); lat > time.Second {
		t.Fatalf("backup FIN took %v to reach the primary (HB period 5s, SendNow broken?)", lat)
	}
}

func tailStr(s string) string {
	if len(s) > 4000 {
		return s[len(s)-4000:]
	}
	return s
}
