package experiment

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// TestScaleFailoverSmoke exercises the capacity runner end to end at a
// size cheap enough for -short: staggered dials, the 100 Mbit/s heartbeat
// link, a mid-stream crash, and the aggregated result fields.
func TestScaleFailoverSmoke(t *testing.T) {
	_, res, err := runScaleFailover(Options{Seed: 91}, 25, 1<<20)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.TookOver || res.ClientsDone != 25 || res.VerifyFailures != 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.TotalBytes != 25*(1<<20) {
		t.Fatalf("total bytes %d, want %d", res.TotalBytes, 25*(1<<20))
	}
	if res.DetectionTime <= 0 || res.MaxStall <= 0 {
		t.Fatalf("missing failover timings: %+v", res)
	}
	if res.SegmentsEmitted == 0 {
		t.Fatalf("missing segment accounting: %+v", res)
	}
}

// TestScaleClosesTheBackupSilenceEraAtTakeover: the scale run ends itself
// from a hook on the backup's state changes, and the registry's hook on the
// same node must keep running beside it — the backup's silence era closes
// at the takeover, not at the end of the run, where the segments the
// taken-over backup sent would convict it.
func TestScaleClosesTheBackupSilenceEraAtTakeover(t *testing.T) {
	run, _, err := runScaleFailover(Options{Seed: 91}, 25, 1<<20)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	took, ok := run.Testbed.Tracer.First(trace.KindTakeover)
	if !ok {
		t.Fatal("no takeover")
	}
	closed := 0
	for _, e := range run.eras {
		if e.node != run.Testbed.BackupNode {
			continue
		}
		if e.open || e.closedAt != took.Time.Sub(sim.Epoch) {
			t.Errorf("backup's silence era open %v, closed at %v; the takeover was at %v", e.open, e.closedAt, took.Time.Sub(sim.Epoch))
		}
		closed++
	}
	if closed != 1 {
		t.Errorf("the backup held %d silence eras, want 1", closed)
	}
}

// TestThousandConnectionsFailover pushes the testbed to 1,000 concurrent
// connections — an order of magnitude past the serial heartbeat's ~100-
// connection budget, so the run leans on the 100 Mbit/s heartbeat link —
// and crashes the primary mid-stream. Every transfer must complete with
// zero verification failures across the takeover.
func TestThousandConnectionsFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short")
	}
	_, res, err := runScaleFailover(Options{Seed: 91}, 1000, 64<<10)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.TookOver {
		t.Fatal("backup never took over")
	}
	if res.ClientsDone != 1000 || res.VerifyFailures != 0 {
		t.Fatalf("clients done=%d verify failures=%d", res.ClientsDone, res.VerifyFailures)
	}
	t.Logf("1000 conns: detect=%v max stall=%v, %d segments in %v virtual",
		res.DetectionTime, res.MaxStall, res.SegmentsEmitted, res.VirtualElapsed)
}

// TestNICFailureWithDeadGateway kills the gateway before failing the
// primary's NIC: ping arbitration yields no verdict (both sides fail), so
// the diagnosis must fall back to the client-data criterion — and still
// pick the right side.
func TestNICFailureWithDeadGateway(t *testing.T) {
	tb := Build(Options{Seed: 92})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	pSrv := app.NewEchoServer("primary/app", tb.Tracer)
	bSrv := app.NewEchoServer("backup/app", tb.Tracer)
	tb.PrimaryNode.OnAccept = pSrv.Accept
	tb.BackupNode.OnAccept = bSrv.Accept
	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 3000, 1024, tb.Tracer)
	cl.Gap = 3 * time.Millisecond
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	tb.Sim.Schedule(1500*time.Millisecond, tb.Gateway.CrashHW)
	tb.Sim.Schedule(2*time.Second, tb.Primary.FailNIC)
	if err := tb.Run(5 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if tb.BackupNode.State() != sttcp.StateTakenOver {
		t.Fatalf("backup state %v (reason=%q)\n%s",
			tb.BackupNode.State(), tb.BackupNode.FailoverReason, tailStr(tb.Tracer.Dump()))
	}
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		t.Fatalf("client: done=%v err=%v rounds=%d", cl.Done, cl.Err, cl.RoundsDone)
	}
	t.Logf("diagnosed without gateway: %s", tb.BackupNode.FailoverReason)
}

// TestNonFTPrimaryKeepsServing: after the backup is declared failed, the
// primary continues serving existing and new connections without
// replication.
func TestNonFTPrimaryKeepsServing(t *testing.T) {
	tb := Build(Options{Seed: 93})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	first := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 8 << 20, Tracer: tb.Tracer,
	})
	if err := first.Start(); err != nil {
		t.Fatalf("first client: %v", err)
	}
	tb.Sim.Schedule(300*time.Millisecond, tb.Backup.CrashHW)

	var second *app.StreamClient
	tb.Sim.Schedule(2*time.Second, func() {
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
	if tb.PrimaryNode.State() != sttcp.StateNonFT {
		t.Fatalf("primary state %v", tb.PrimaryNode.State())
	}
	if !first.Done || first.Err != nil || first.VerifyFailures != 0 {
		t.Fatalf("first client: done=%v err=%v", first.Done, first.Err)
	}
	if second == nil || !second.Done || second.Err != nil || second.VerifyFailures != 0 {
		t.Fatalf("second client in non-FT mode failed")
	}
}

// TestTimelineHelpers covers the pie-chart rendering used by the demo CLI.
func TestTimelineHelpers(t *testing.T) {
	tb := Build(Options{Seed: 94})
	start := tb.Sim.Now()
	samples := []app.ProgressSample{
		{Time: start.Add(100 * time.Millisecond), Bytes: 25},
		{Time: start.Add(200 * time.Millisecond), Bytes: 50},
		{Time: start.Add(500 * time.Millisecond), Bytes: 100},
	}
	tl := ProgressTimeline(samples, 100, start, start.Add(500*time.Millisecond), 100*time.Millisecond)
	want := []float64{0, 0.25, 0.5, 0.5, 0.5, 1}
	if len(tl) != len(want) {
		t.Fatalf("timeline = %v", tl)
	}
	for i := range want {
		if tl[i] != want[i] {
			t.Fatalf("timeline[%d] = %v, want %v (%v)", i, tl[i], want[i], tl)
		}
	}
	if s := FormatTimeline(tl); len(s) == 0 || s == "(no samples)" {
		t.Fatalf("format = %q", s)
	}
	if FormatTimeline(nil) != "(no samples)" {
		t.Fatal("empty format")
	}
	if got := ProgressTimeline(nil, 0, start, start, 0); got != nil {
		t.Fatal("degenerate timeline not nil")
	}
}
