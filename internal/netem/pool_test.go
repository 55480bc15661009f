package netem

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/sim"
)

func TestBufPoolReusesBuffers(t *testing.T) {
	var p bufPool
	b1 := p.get(100)
	if len(b1) != 100 || cap(b1) < eth.MaxFrameLen {
		t.Fatalf("get(100): len=%d cap=%d, want len 100 cap >= %d", len(b1), cap(b1), eth.MaxFrameLen)
	}
	p.put(b1)
	b2 := p.get(1518)
	if &b1[0] != &b2[0] {
		t.Fatal("pool did not reuse the returned buffer")
	}
	// An oversize request still works (and is not pooled at small cap).
	big := p.get(10_000)
	if len(big) != 10_000 {
		t.Fatalf("oversize get: len=%d", len(big))
	}
}

// TestLinkPoolingPreservesFrames drives distinct payloads back-to-back
// through a serialized link, so several pooled frames are in flight at
// once, and checks every delivered frame carries its own bytes — the
// failure mode of a pooled buffer being recycled too early is cross-frame
// corruption.
func TestLinkPoolingPreservesFrames(t *testing.T) {
	s := sim.New(1)
	link := NewLink(s, LinkConfig{BitsPerSecond: 1_000_000, Delay: 5 * time.Millisecond})
	a := NewNIC(s, "a", eth.MakeAddr(1))
	b := NewNIC(s, "b", eth.MakeAddr(2))
	link.Attach(a, b)
	a.AttachToLink(link, true)
	b.AttachToLink(link, false)
	var got [][]byte
	b.SetHandler(func(f eth.Frame) { got = append(got, append([]byte(nil), f.Payload...)) })

	const frames = 32
	for i := 0; i < frames; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 200+i)
		if err := a.Send(eth.Frame{Dst: b.Addr(), Type: eth.TypeIPv4, Payload: payload}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != frames {
		t.Fatalf("delivered %d frames, want %d", len(got), frames)
	}
	for i, p := range got {
		if len(p) != 200+i {
			t.Fatalf("frame %d: len %d, want %d", i, len(p), 200+i)
		}
		for _, c := range p {
			if c != byte(i+1) {
				t.Fatalf("frame %d corrupted: byte %#x, want %#x", i, c, i+1)
			}
		}
	}
	if len(link.pool.free) == 0 {
		t.Fatal("link pool empty after deliveries; buffers are not being returned")
	}
	if len(link.deliveries) == 0 {
		t.Fatal("no delivery records recycled")
	}
}

// TestSwitchPoolingPreservesFrames covers the switch's borrowed frame: the
// port forwards the ingress link's own buffer, which that link reissues as
// soon as the delivery returns, so each egress link must have copied it by
// then — or back-to-back frames would overwrite each other downstream.
func TestSwitchPoolingPreservesFrames(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", 50*time.Microsecond)
	a := NewNIC(s, "a", eth.MakeAddr(1))
	b := NewNIC(s, "b", eth.MakeAddr(2))
	Connect(s, sw, a, DefaultLANConfig())
	Connect(s, sw, b, DefaultLANConfig())
	var got [][]byte
	b.SetHandler(func(f eth.Frame) { got = append(got, append([]byte(nil), f.Payload...)) })

	const frames = 16
	for i := 0; i < frames; i++ {
		payload := bytes.Repeat([]byte{byte(0x40 + i)}, 600)
		if err := a.Send(eth.Frame{Dst: b.Addr(), Type: eth.TypeIPv4, Payload: payload}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != frames {
		t.Fatalf("delivered %d frames, want %d", len(got), frames)
	}
	for i, p := range got {
		if !bytes.Equal(p, bytes.Repeat([]byte{byte(0x40 + i)}, 600)) {
			t.Fatalf("frame %d corrupted through switch", i)
		}
	}
}

// TestDeliverFrameBufValidForTheWholeCall states the Endpoint contract from
// the endpoint's side: buf stays the bytes that were sent until DeliverFrame
// returns, whatever the endpoint does meanwhile. A raw Endpoint replies from
// inside the call, so the link takes a buffer from its pool while the
// delivered one is still in use; had the link put that one back before
// calling the endpoint, the reply would be copied over it. (A NIC lends the
// same bytes on to its handler, so every layer above borrows under this
// contract.)
func TestDeliverFrameBufValidForTheWholeCall(t *testing.T) {
	s := sim.New(1)
	link := NewLink(s, LinkConfig{Delay: time.Millisecond})
	reply := bytes.Repeat([]byte{0xEE}, 300)
	checked := 0
	link.Attach(endpointFunc(func([]byte) {}), endpointFunc(func(buf []byte) {
		checked++
		link.TransmitFromB(reply)
		if sent := bytes.Repeat([]byte{byte(checked)}, 300); !bytes.Equal(buf, sent) {
			t.Errorf("frame %d changed under DeliverFrame once the endpoint transmitted: sent % x…, buf now % x…", checked, sent[:4], buf[:4])
		}
	}))

	const frames = 4
	for i := 0; i < frames; i++ {
		link.TransmitFromA(bytes.Repeat([]byte{byte(i + 1)}, 300))
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if checked != frames {
		t.Fatalf("delivered %d frames, want %d", checked, frames)
	}
}

// TestLinkPoolsAreBounded sends a burst of 1,000 frames through one link,
// all in flight at once: once they are delivered each pool keeps at most
// poolFrames, and a frame of the steady state after the burst is still a
// reused buffer.
func TestLinkPoolsAreBounded(t *testing.T) {
	s := sim.New(1)
	link := NewLink(s, LinkConfig{BitsPerSecond: 1_000_000, Delay: time.Millisecond})
	var last *byte
	link.Attach(endpointFunc(func([]byte) {}), endpointFunc(func(buf []byte) { last = &buf[0] }))
	frame := make([]byte, 200)
	for i := 0; i < 1000; i++ {
		link.TransmitFromA(frame)
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(link.pool.free) != poolFrames || len(link.deliveries) != poolFrames {
		t.Fatalf("after the burst the pools keep %d frames and %d delivery records, want %d each", len(link.pool.free), len(link.deliveries), poolFrames)
	}
	var seen []*byte
	for i := 0; i < 2; i++ {
		link.TransmitFromA(frame)
		if err := s.Run(time.Minute); err != nil {
			t.Fatalf("run: %v", err)
		}
		seen = append(seen, last)
	}
	if seen[0] != seen[1] {
		t.Fatal("a steady-state frame did not reuse the pooled buffer")
	}
}
