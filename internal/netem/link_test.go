package netem

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// endpointFunc is a raw Endpoint. Unlike a NIC it copies nothing out of buf
// before its body runs, so it sees the link's own buffer and the link's own
// causal context.
type endpointFunc func(buf []byte)

func (f endpointFunc) DeliverFrame(buf []byte) { f(buf) }

// TestLinkDeliveryRunsUnderSenderContextAndRestores states the causal-context
// discipline of Link.deliverNow: many frames share one drain event, each is
// delivered under the context its sender transmitted it in, and the drain
// event's own context is back in place afterwards — a missed restore would
// re-parent whatever the event does next (here: the drop notes of frames that
// went down in flight, and the timer arming for the next batch).
func TestLinkDeliveryRunsUnderSenderContextAndRestores(t *testing.T) {
	s := sim.New(1)
	rec := trace.NewRecorder(s.Now)
	rec.BindContext(s.Context, s.SetContext)
	rec.SetDetail(true) // drop notes carry the context that was ambient when they were emitted
	link := NewLink(s, LinkConfig{Delay: time.Millisecond})
	link.SetTrace(rec, "l")

	var delivered []uint64
	link.Attach(nil, endpointFunc(func(buf []byte) {
		delivered = append(delivered, s.Context())
		if buf[0] == 2 {
			link.SetDown(true) // the rest of the batch takes the went-down-in-flight return
		}
	}))

	// Frames 1-3 arrive together, in one drain batch. The first arms the
	// side's timer, so the drain event's own context is frame 1's: 7.
	for i, ctx := range []uint64{7, 9, 11} {
		s.SetContext(ctx)
		link.TransmitFromA([]byte{byte(i + 1)})
	}
	// Frame 4 is sent later, under 13, behind frames still in flight: the
	// timer for its batch is armed by the end of the first batch.
	s.SetContext(13)
	s.Schedule(500*time.Microsecond, func() { link.TransmitFromA([]byte{4}) })
	s.SetContext(0)
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}

	if len(delivered) != 2 || delivered[0] != 7 || delivered[1] != 9 {
		t.Errorf("DeliverFrame ran under contexts %v, want each sender's own: [7 9]", delivered)
	}
	drops := rec.Filter(trace.KindNetDrop)
	if len(drops) != 2 {
		t.Fatalf("%d in-flight drops noted, want frames 3 and 4:\n%s", len(drops), rec.Dump())
	}
	if drops[0].Span != 7 {
		t.Errorf("after delivering frame 2 (context 9) the drain event ran under %d, want its own context 7 restored", drops[0].Span)
	}
	if drops[1].Span != 7 {
		t.Errorf("the second batch ran under %d, want 7: the first batch — a delivery, then an in-flight drop, which must leave the context alone — armed it under the drain event's own context", drops[1].Span)
	}
	if s.Context() != 0 {
		t.Errorf("ambient context after the run = %d, want 0", s.Context())
	}
}

// TestLinkArrivalInstantsByHand pins the link's arithmetic to the nanosecond
// against figures worked out by hand, at 100 Mbit/s (10 ns a bit) and 50 µs:
// a frame leaves when the one before it has left the wire and arrives one
// propagation delay after its own last bit, and a drop window is half-open —
// a frame sent at the very instant it ends is carried.
func TestLinkArrivalInstantsByHand(t *testing.T) {
	s := sim.New(1)
	link := NewLink(s, DefaultLANConfig())
	var got []time.Duration
	link.Attach(nil, endpointFunc(func(buf []byte) { got = append(got, s.Elapsed()) }))

	// Back to back at t = 0: 64 B is 512 bits, 5,120 ns on the wire; 1,514 B
	// is 12,112 bits, 121,120 ns, and starts when the first has left.
	link.TransmitFromA(make([]byte, 64))
	link.TransmitFromA(make([]byte, 1514))
	// A window over [1 ms, 2 ms): one frame inside it, one exactly at its end.
	s.Schedule(time.Millisecond, func() { link.DropFromAFor(time.Millisecond) })
	s.Schedule(1500*time.Microsecond, func() { link.TransmitFromA(make([]byte, 64)) })
	s.Schedule(2*time.Millisecond, func() { link.TransmitFromA(make([]byte, 64)) })
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}

	want := []time.Duration{
		5_120 + 50_000,
		5_120 + 121_120 + 50_000,
		2_000_000 + 5_120 + 50_000,
	}
	if len(got) != len(want) {
		t.Fatalf("arrivals at %v, want %v (drops %d)", got, want, link.Drops)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d arrived at %d ns, want %d ns", i, got[i], want[i])
		}
	}
	if link.Drops != 1 {
		t.Errorf("%d frames dropped, want the one sent inside the window", link.Drops)
	}
}
