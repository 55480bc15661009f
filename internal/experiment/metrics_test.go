package experiment

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/trace"
)

// TestMetricsMatchTrace is the observability subsystem's ground-truth
// check: every counter is incremented exactly where the corresponding
// trace event is emitted, so after a Demo 2 failover run the snapshot's
// totals must equal the trace stream's event counts.
func TestMetricsMatchTrace(t *testing.T) {
	d, ok := DemoByName("demo2")
	if !ok {
		t.Fatal("demo2 is not registered")
	}
	res, err := d.Run(Params{Seed: 42, Periods: []time.Duration{200 * time.Millisecond}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Failovers) != 1 {
		t.Fatalf("got %d failover results, want 1", len(res.Failovers))
	}
	r := res.Failovers[0]
	if r.Metrics == nil {
		t.Fatal("FailoverResult.Metrics snapshot is nil")
	}
	if r.Tracer == nil {
		t.Fatal("FailoverResult.Tracer is nil")
	}

	checks := []struct {
		counter string
		kind    trace.Kind
	}{
		{"tcp.retransmits", trace.KindRetransmit},
		{"sttcp.takeovers", trace.KindTakeover},
		{"hb.sent", trace.KindHBSent},
	}
	for _, c := range checks {
		got := r.Metrics.CounterTotal(c.counter)
		want := int64(r.Tracer.Count(c.kind))
		if got != want {
			t.Errorf("%s: snapshot total %d != %d %v trace events", c.counter, got, want, c.kind)
		}
	}

	// The run crashed the primary mid-transfer, so the interesting
	// counters must actually have moved: a takeover happened, the crash
	// forced retransmissions, and heartbeats flowed beforehand.
	for _, name := range []string{"sttcp.takeovers", "tcp.retransmits", "hb.sent", "tcp.segments_sent"} {
		if r.Metrics.CounterTotal(name) == 0 {
			t.Errorf("%s: expected a non-zero total after a failover run", name)
		}
	}
}

// TestMetricsSnapshotDeterministic replays the same demo with the same
// seed and requires byte-identical snapshots: the metric layer must not
// introduce nondeterminism into the simulation.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	run := func() string {
		d, _ := DemoByName("demo2")
		res, err := d.Run(Params{Seed: 7, Periods: []time.Duration{500 * time.Millisecond}})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.Failovers[0].Metrics.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("snapshots differ between identical runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestDemoRegistry checks the registry surface the commands iterate over.
func TestDemoRegistry(t *testing.T) {
	demos := Demos()
	if len(demos) < 6 {
		t.Fatalf("got %d registered demos, want at least 6", len(demos))
	}
	seen := make(map[string]bool)
	for _, d := range demos {
		if d.Name == "" || d.Title == "" || d.Run == nil {
			t.Errorf("demo %+v is missing a name, title, or runner", d)
		}
		if seen[d.Name] {
			t.Errorf("duplicate demo name %q", d.Name)
		}
		seen[d.Name] = true
	}
	if _, ok := DemoByName("demo1"); !ok {
		t.Error("DemoByName(demo1) not found")
	}
	if _, ok := DemoByName("nope"); ok {
		t.Error("DemoByName(nope) unexpectedly found")
	}
}

// TestHoldBufferGaugeOnEchoRun pins the hold-buffer occupancy gauge on an
// echo-shaped run — four connections of 64-byte ping-pong, failure-free, the
// only shape where clients write payload all run long. The gauge is fed
// from a running total on the node; the figures are those the walk over
// every connection's buffer produced before it (same seed, same run), so a
// missed adjustment shows up as a different high-water mark or a total that
// does not return to zero.
func TestHoldBufferGaugeOnEchoRun(t *testing.T) {
	tb := Build(Options{Seed: 17})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	pSrv := app.NewEchoServer("primary/app", nil)
	bSrv := app.NewEchoServer("backup/app", nil)
	tb.PrimaryNode.OnAccept = pSrv.Accept
	tb.BackupNode.OnAccept = bSrv.Accept
	var clients []*app.EchoClient
	for i := 0; i < 4; i++ {
		cl := app.NewEchoClient(fmt.Sprintf("client/app%d", i), tb.Client.TCP(), ServiceAddr, ServicePort, 2000, 64, nil)
		if err := cl.Start(); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		clients = append(clients, cl)
	}
	if err := tb.Run(time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, cl := range clients {
		if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
			t.Fatalf("client %d: done=%v err=%v rounds=%d", i, cl.Done, cl.Err, cl.RoundsDone)
		}
	}
	var found bool
	for _, sm := range tb.Metrics.Snapshot().Find("sttcp.holdbuf_bytes") {
		if sm.Component != "primary/sttcp" {
			continue
		}
		found = true
		const wantMax, wantLast = 198400, 0
		if sm.Max != wantMax || sm.Value != wantLast {
			t.Fatalf("sttcp.holdbuf_bytes max %d last %d, want %d and %d", sm.Max, sm.Value, wantMax, wantLast)
		}
	}
	if !found {
		t.Fatal("no sttcp.holdbuf_bytes gauge on the primary")
	}
}
