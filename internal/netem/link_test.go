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
