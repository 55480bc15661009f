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
// twice, the primary's hold buffer, the backup's suppressed replica and its
// segment filter, the applications on both servers, heartbeats on both links.
// Once the pools, free lists and rings have grown, a segment allocates
// nothing; what is left is per heartbeat (a few objects every 200 ms) and the
// client's progress series doubling, both far under one object in twenty
// segments.
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
			if err := tb.FailureFree(); err != nil {
				t.Fatal(err)
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
