package experiment

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/app"
)

// TestSteadyStateSegmentAllocatesNothing is TestAllocsPerSegmentBudget
// (internal/tcp) on the whole Figure 2 testbed with ST-TCP on, so every path
// a client segment takes is under it: the multicast tap that delivers it
// twice, the primary's held receive buffer, the backup's suppressed replica
// and its segment filter, the applications on both servers, heartbeats on
// both links. Once the pools, free lists and rings have grown, a segment
// allocates nothing; what is left is per heartbeat (a few objects every
// 200 ms) and the client's progress series doubling, both far under one
// object in twenty segments.
func TestSteadyStateSegmentAllocatesNothing(t *testing.T) {
	const warmUp, measured, budget = 300 * time.Millisecond, 600 * time.Millisecond, 0.05
	for _, tc := range []struct {
		name string
		w    Workload
	}{
		{"echo", Workload{Echo: true, Rounds: 1 << 20, MsgSize: 64}},
		{"download", Workload{Bytes: 64 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := Build(Options{Seed: 19})
			if err := tb.StartSTTCP(0, nil); err != nil {
				t.Fatalf("start: %v", err)
			}
			tb.AttachServers(tc.w.Echo)
			cl, err := tb.StartClient("client/app", tc.w)
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			segments := func() int64 {
				return tb.Client.TCP().Emitted + tb.Primary.TCP().Emitted + tb.Backup.TCP().Emitted
			}
			// What the measured stretch is sized in: completed echo rounds,
			// or segments of a download.
			progress := func() int64 {
				if ec, ok := cl.(*app.EchoClient); ok {
					return int64(ec.RoundsDone)
				}
				return segments()
			}
			if err := tb.Run(warmUp); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			segs0, progress0 := segments(), progress()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := tb.Run(measured); err != nil {
				t.Fatalf("measured run: %v", err)
			}
			runtime.ReadMemStats(&after)

			segs := segments() - segs0
			if n := progress() - progress0; n < 2000 {
				t.Fatalf("measured stretch holds %d rounds/segments, want at least 2000", n)
			}
			if done, bad, err := cl.Outcome(); done || bad != 0 || err != nil {
				t.Fatalf("client left steady state: done=%v mismatches=%d err=%v", done, bad, err)
			}
			if v := (&Run{Testbed: tb}).quiescence(); len(v) > 0 {
				t.Fatal(v)
			}
			if tb.Backup.TCP().Received == 0 {
				t.Fatal("the backup's tap did not run: no segment reached its stack")
			}
			perSeg := float64(after.Mallocs-before.Mallocs) / float64(segs)
			t.Logf("%d rounds/segments, %d segments: %.4f allocs and %.1f B per segment", progress()-progress0, segs, perSeg,
				float64(after.TotalAlloc-before.TotalAlloc)/float64(segs))
			if perSeg > budget {
				t.Fatalf("%.3f allocations per segment in steady state, budget %.2f — something on the segment path allocates per segment again", perSeg, budget)
			}
		})
	}
}

// TestConnectionSetupAllocBudget pins what a connection's whole life costs
// in allocations on the Figure 2 testbed with ST-TCP: 50 downloads of
// 32 KiB, dialled 500 µs apart, each a connection on the client, the
// primary and the backup, its service, its replication state and its
// milestones. Per-segment work allocates nothing (the test above), so
// nearly all of it is per connection: a Conn is one object, its timers and
// windows inside it, and a milestone's message is not rendered until it is
// read. The budget is the measured 70.5 plus 10 %.
// tcp's TestNewConnIsOneObject holds the Conn to its one object exactly.
// The race build renders every message as it is emitted, so it is not
// measured there.
func TestConnectionSetupAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the race build renders each message at its emit")
	}
	const conns, size, gap = 50, 32 << 10, 500 * time.Microsecond
	const budget = 70.5 * 1.1
	tb := Build(Options{Seed: 19})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	clients := make([]app.Client, 0, conns)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range conns {
		tb.Sim.Schedule(time.Duration(i)*gap, func() {
			cl, err := tb.StartClient("client/app", Workload{Bytes: size})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
			clients = append(clients, cl)
		})
	}
	if err := tb.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	runtime.ReadMemStats(&after)
	for i, cl := range clients {
		if !app.Completed(cl) {
			t.Fatalf("client %d did not complete its download", i)
		}
	}
	if len(clients) != conns {
		t.Fatalf("%d clients, want %d", len(clients), conns)
	}
	perConn := float64(after.Mallocs-before.Mallocs) / conns
	t.Logf("%.2f allocations and %.0f B per connection", perConn, float64(after.TotalAlloc-before.TotalAlloc)/conns)
	if perConn > budget {
		t.Fatalf("a connection costs %.2f allocations, budget %.2f", perConn, budget)
	}
}
