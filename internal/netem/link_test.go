package netem

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// endpointFunc is a raw Endpoint. Unlike a NIC it copies nothing out of buf
// before its body runs, so it sees the link's own buffer and the link's own
// causal context.
type endpointFunc func(buf []byte)

func (f endpointFunc) DeliverFrame(buf []byte, _ bool) { f(buf) }

// TestLinkDeliveryRunsUnderSenderContextAndRestores states the causal-context
// discipline of Link.deliverNow: many frames share one drain event, each is
// delivered under the context its sender transmitted it in, and the context
// that was ambient before a delivery is back in place after it — a missed
// restore would re-parent whatever the drain event does next (the timer
// arming for the next batch).
func TestLinkDeliveryRunsUnderSenderContextAndRestores(t *testing.T) {
	s := sim.New(1)
	link := NewLink(s, LinkConfig{Delay: time.Millisecond})
	var delivered []uint64
	sink := endpointFunc(func([]byte) { delivered = append(delivered, s.Context()) })
	link.Attach(nil, sink)

	// Frames 1-3 arrive together, in one drain batch; frame 4 is sent later,
	// under 13, behind frames still in flight.
	for i, ctx := range []uint64{7, 9, 11} {
		s.SetContext(ctx)
		link.TransmitFromA([]byte{byte(i + 1)})
	}
	s.SetContext(13)
	s.Schedule(500*time.Microsecond, func() { link.TransmitFromA([]byte{4}) })
	s.SetContext(0)
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := []uint64{7, 9, 11, 13}; !slices.Equal(delivered, want) {
		t.Errorf("DeliverFrame ran under contexts %v, want each sender's own: %v", delivered, want)
	}

	// One delivery by hand, under an ambient context of 3.
	d := link.takeDelivery()
	d.frame, d.ctx = link.pool.get(1), 9
	s.SetContext(3)
	link.deliverNow(link.a, d)
	if got := s.Context(); got != 3 || delivered[len(delivered)-1] != 9 {
		t.Errorf("a delivery under context 9 left the ambient context at %d, want 3 restored", got)
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
	link.Attach(endpointFunc(func(buf []byte) { got = append(got, s.Elapsed()) }), nil)

	// Back to back at t = 0: 64 B is 512 bits, 5,120 ns on the wire; 1,514 B
	// is 12,112 bits, 121,120 ns, and starts when the first has left.
	link.TransmitFromB(make([]byte, 64))
	link.TransmitFromB(make([]byte, 1514))
	// A window over [1 ms, 2 ms): one frame inside it, one exactly at its end.
	s.Schedule(time.Millisecond, func() { link.DropFromBFor(time.Millisecond) })
	s.Schedule(1500*time.Microsecond, func() { link.TransmitFromB(make([]byte, 64)) })
	s.Schedule(2*time.Millisecond, func() { link.TransmitFromB(make([]byte, 64)) })
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
