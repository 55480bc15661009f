package tcp

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
)

// The per-segment bookkeeping (noteEmit / noteReceived) runs once per
// segment on every host and must not allocate. The trace-emission side of
// the segment path is deliberately excluded: it formats strings and is
// gated behind tracer.Detail().
func TestSegmentBookkeepingDoesNotAllocate(t *testing.T) {
	reg := metrics.New(nil)
	st := &Stack{
		mSent:     reg.Counter("t/tcp", "tcp.segments_sent"),
		mReceived: reg.Counter("t/tcp", "tcp.segments_received"),
	}
	if n := testing.AllocsPerRun(1000, func() {
		st.noteEmit()
		st.noteReceived()
	}); n != 0 {
		t.Fatalf("segment bookkeeping allocated %.1f times per run, want 0", n)
	}
	if st.Emitted == 0 || st.Received == 0 || st.mSent.Value() != st.Emitted {
		t.Fatalf("bookkeeping lost counts: emitted=%d received=%d counter=%d",
			st.Emitted, st.Received, st.mSent.Value())
	}
}

// TestAllocsPerSegmentBudget holds the segment path's allocation
// discipline where it can be observed, escapes included (a syntactic check
// once passed, for many releases, a Segment that escaped to the heap through
// the OnTransmit hook). In steady state a segment allocates nothing: timers
// are reusable sim.Timers, notifications ride pooled Post events, a segment
// is written once into a pooled frame that every hop hands on and the
// receive path borrows — not copies — and Segments come from the stack's
// free list. The budget is what amortised
// growth leaves (a pool or ring doubling once in the measured transfer), so
// one allocation per segment anywhere fails it ten times over.
func TestAllocsPerSegmentBudget(t *testing.T) {
	h := newPair(t, 77, netem.LinkConfig{BitsPerSecond: 100_000_000, Delay: 50 * time.Microsecond}, Options{})
	client, server := connectPair(t, h, 80)

	// Discard everything server-side through one fixed buffer so the
	// measurement sees the stack, not the test's own accumulation.
	readBuf := make([]byte, 64<<10)
	server.OnReadable = func() {
		for {
			n, _ := server.Read(readBuf)
			if n == 0 {
				return
			}
		}
	}

	const chunk = 256 << 10
	payload := make([]byte, chunk)

	// Warm-up transfer: grows buffer pools, event free lists, and ring
	// buffers to steady state.
	writeAll(client, payload)
	if err := h.sim.Run(5 * time.Second); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}

	segsBefore := h.stackA.Emitted + h.stackB.Emitted
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	writeAll(client, payload)
	if err := h.sim.Run(5 * time.Second); err != nil {
		t.Fatalf("measured run: %v", err)
	}

	runtime.ReadMemStats(&after)
	segs := h.stackA.Emitted + h.stackB.Emitted - segsBefore
	if segs < 100 {
		t.Fatalf("only %d segments moved; harness broken", segs)
	}
	perSeg := float64(after.Mallocs-before.Mallocs) / float64(segs)
	bytesPerSeg := float64(after.TotalAlloc-before.TotalAlloc) / float64(segs)
	t.Logf("%d segments, %.2f allocs/segment, %.0f B/segment", segs, perSeg, bytesPerSeg)
	const budget = 0.1
	if perSeg > budget {
		t.Fatalf("hot path allocates %.2f objects per segment, budget %.1f — a pooled layer regressed", perSeg, budget)
	}
	// Objects alone missed a 16 KiB scratch chunk per application pump:
	// one object, eleven segments' worth of bytes.
	const bytesBudget = 64
	if bytesPerSeg > bytesBudget {
		t.Fatalf("hot path allocates %.0f B per segment, budget %d — something sized by a buffer, not by a segment, is allocated per segment", bytesPerSeg, bytesBudget)
	}
}

// TestSendBufferSteadyStateDoesNotAllocate: once the send ring has reached its
// capacity and its scratch area exists, acknowledging, refilling and
// slicing a full buffer — wrapped spans included — allocates nothing.
func TestSendBufferSteadyStateDoesNotAllocate(t *testing.T) {
	const size, mss = 64 << 10, 1460 // mss does not divide size: every span position occurs
	sb := NewWindow(size)
	sb.Write(make([]byte, size))
	p := make([]byte, mss)
	round := func() {
		sb.Release(sb.base + mss)
		if n := sb.Write(p); n != mss {
			t.Fatalf("full buffer accepted %d of %d after a release of as much", n, mss)
		}
		if seg, err := sb.Slice(sb.End()-mss, mss); err != nil || len(seg) != mss {
			t.Fatalf("slice = %d bytes, %v", len(seg), err)
		}
	}
	for i := 0; i <= size/mss; i++ {
		round() // once around the ring: the scratch area is sized on the way
	}
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("steady-state release+write+slice allocated %.1f times per round, want 0", n)
	}
}

// TestNewConnIsOneObject: a connection is one allocation, its two windows
// and three timers inside it, plus the five callbacks bound to it once (the
// timers' and the two wake-ups').
func TestNewConnIsOneObject(t *testing.T) {
	h := newPair(t, 1, lan(), Options{})
	id := ConnID{LocalPort: 80, RemotePort: 49152}
	if n := testing.AllocsPerRun(100, func() { h.stackA.newConn(id) }); n != 1+5 {
		t.Fatalf("a new connection costs %.1f allocations, want 6", n)
	}
}
