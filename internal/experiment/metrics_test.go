package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/metrics"
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
	runs, _, err := d.Run(Params{Seed: 42, Periods: []time.Duration{200 * time.Millisecond}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	snap, tracer := runs[0].Testbed.Metrics.Snapshot(), runs[0].Testbed.Tracer

	checks := []struct {
		counter string
		kind    trace.Kind
	}{
		{"tcp.retransmits", trace.KindRetransmit},
		{"sttcp.takeovers", trace.KindTakeover},
	}
	for _, c := range checks {
		got := snap.CounterTotal(c.counter)
		want := int64(tracer.Count(c.kind))
		if got != want {
			t.Errorf("%s: snapshot total %d != %d %v trace events", c.counter, got, want, c.kind)
		}
	}

	// The run crashed the primary mid-transfer, so the interesting
	// counters must actually have moved: a takeover happened, the crash
	// forced retransmissions, and heartbeats flowed beforehand.
	for _, name := range []string{"sttcp.takeovers", "tcp.retransmits", "hb.sent", "tcp.segments_sent"} {
		if snap.CounterTotal(name) == 0 {
			t.Errorf("%s: expected a non-zero total after a failover run", name)
		}
	}
}

// TestMetricsSnapshotDeterministic replays the same demo with the same
// seed and requires byte-identical snapshots: the metric layer must not
// introduce nondeterminism into the simulation.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	run := func() string { // the snapshot as a report's metrics section holds it
		d, _ := DemoByName("demo2")
		runs, _, err := d.Run(Params{Seed: 7, Periods: []time.Duration{500 * time.Millisecond}})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		var b strings.Builder
		if err := runs[0].Testbed.Metrics.Snapshot().WriteJSON(&b); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		return b.String()
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
// only shape where clients write payload all run long. Each connection's
// receive buffer moves the gauge as it delivers and as reports release; the
// figures are those the separate hold buffers produced before it (same seed,
// same run), so a missed adjustment shows up as a different high-water mark
// or a total that does not return to zero.
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

// TestTelemetrySamplingDoesNotChangeTheRun states "observation must not
// perturb the run" directly: the Demo 2 plan at 200 ms and seed 42, run
// without the sampler and with one ticking every 10 ms, fires the same events
// plus exactly one per sampled window, leaves the same events pending plus
// the next tick, and produces the same event trace and the same metrics —
// except the instruments the sampler registers for itself under component
// "telemetry". (The clock always ends on the horizon, so the event counts are
// what show a run that went on longer.) A tick that posted foreground work,
// at any delay, would add events; one that touched the system would move the
// trace. Unlike a static call graph, which may miss calls through function
// values, this sees every path the tick takes.
func TestTelemetrySamplingDoesNotChangeTheRun(t *testing.T) {
	run := func(window time.Duration) *Testbed {
		out, err := Plan{
			Options: Options{Seed: 42, TelemetryWindow: window},
			HB:      200 * time.Millisecond,
			Clients: []Workload{Workload{Bytes: 32 << 20}},
			Faults:  []Fault{crashPrimary(demo2CrashAfter)},
			Horizon: 10 * time.Minute,
		}.Run()
		if err != nil {
			t.Fatalf("telemetry window %v: %v", window, err)
		}
		return out.Testbed
	}
	off, on := run(0), run(10*time.Millisecond)

	windows := on.Telemetry.Timeline().Windows
	if windows < 100 {
		t.Fatalf("the sampled run sampled %d windows: too few for the comparison to mean anything", windows)
	}
	if got, want := on.Sim.Fired(), off.Sim.Fired()+uint64(windows); got != want {
		t.Errorf("sampled run fired %d events, want the unsampled run's %d plus one per window (%d): a tick scheduled work or kept the run alive",
			got, off.Sim.Fired(), windows)
	}
	if got, want := on.Sim.Pending(), off.Sim.Pending()+1; got != want {
		t.Errorf("sampled run left %d events pending, want the unsampled run's %d plus the next tick", got, off.Sim.Pending())
	}
	if a, b := off.Tracer.Dump(), on.Tracer.Dump(); a != b {
		t.Errorf("sampling changed the event trace: %d events unsampled, %d sampled", off.Tracer.Len(), on.Tracer.Len())
	}
	own := 0
	systemOnly := func(s *metrics.Snapshot) string {
		var b strings.Builder
		for _, sm := range s.Samples {
			if sm.Component == "telemetry" {
				own++
				continue
			}
			fmt.Fprintf(&b, "%+v\n", sm)
		}
		return b.String()
	}
	if a, b := systemOnly(off.Metrics.Snapshot()), systemOnly(on.Metrics.Snapshot()); a != b {
		t.Errorf("sampling changed metrics outside component telemetry:\n--- unsampled\n%s--- sampled\n%s", a, b)
	}
	if own == 0 {
		t.Error("the sampled run registered nothing under component telemetry: the filter above tests nothing")
	}
}
