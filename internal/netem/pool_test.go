package netem

import (
	"bytes"
	"math/bits"
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/sim"
)

func TestBufPoolReusesBuffers(t *testing.T) {
	p := bufPool{limit: poolFrames}
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
	if !distinct(link.pool.free) {
		t.Fatal("a buffer is in the pool twice")
	}
	if len(link.deliveries) == 0 {
		t.Fatal("no delivery records recycled")
	}
}

// TestSwitchPoolingPreservesFrames covers the frame the switch takes on:
// the port keeps the buffer the ingress link delivered and hands it to the
// egress link, so nothing may reissue it before that link delivers it — or
// back-to-back frames would overwrite each other downstream.
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
// inside the call, drawing its reply from the link's pool while the
// delivered frame is still in use; had the link put that one back before
// calling the endpoint, the reply would be written over it. (A NIC lends the
// same bytes on to its handler, so every layer above borrows under this
// contract.)
func TestDeliverFrameBufValidForTheWholeCall(t *testing.T) {
	s := sim.New(1)
	link := NewLink(s, LinkConfig{Delay: time.Millisecond})
	reply := bytes.Repeat([]byte{0xEE}, 300)
	checked := 0
	link.Attach(endpointFunc(func([]byte) {}), endpointFunc(func(buf []byte) {
		checked++
		link.TransmitFromB(append(link.pool.get(0), reply...))
		if sent := bytes.Repeat([]byte{byte(checked)}, 300); !bytes.Equal(buf, sent) {
			t.Errorf("frame %d changed under DeliverFrame once the endpoint transmitted: sent % x…, buf now % x…", checked, sent[:4], buf[:4])
		}
	}))

	const frames = 4
	for i := 0; i < frames; i++ {
		link.TransmitFromA(append(link.pool.get(0), bytes.Repeat([]byte{byte(i + 1)}, 300)...))
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if checked != frames {
		t.Fatalf("delivered %d frames, want %d", checked, frames)
	}
}

// TestLinkPoolsAreBounded sends a burst of 1,000 frames from one NIC
// through a switch to another, all in flight at once: once they are
// delivered the switch's frame pool, which both links share, keeps
// poolFrames per link, each link keeps at most poolFrames delivery
// records, and a frame of the steady state after the burst is still a
// reused buffer.
func TestLinkPoolsAreBounded(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", time.Microsecond)
	a := NewNIC(s, "a", eth.MakeAddr(1))
	b := NewNIC(s, "b", eth.MakeAddr(2))
	in, _ := Connect(s, sw, a, LinkConfig{BitsPerSecond: 1_000_000, Delay: time.Millisecond})
	out, _ := Connect(s, sw, b, LinkConfig{BitsPerSecond: 1_000_000, Delay: time.Millisecond})
	var last *byte
	b.SetHandler(func(f eth.Frame) { last = &f.Payload[0] })
	frame := eth.Frame{Dst: eth.Broadcast, Type: eth.TypeIPv4, Payload: make([]byte, 200)}
	for i := 0; i < 1000; i++ {
		if err := a.Send(frame); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if in.pool != sw.pool || out.pool != sw.pool {
		t.Fatal("a link of the switch does not draw on the switch's pool")
	}
	if len(sw.pool.free) != 2*poolFrames || len(in.deliveries) != poolFrames || len(out.deliveries) > poolFrames {
		t.Fatalf("after the burst the pool keeps %d frames and the links %d and %d delivery records, want %d, %d and at most %d",
			len(sw.pool.free), len(in.deliveries), len(out.deliveries), 2*poolFrames, poolFrames, poolFrames)
	}
	if !distinct(sw.pool.free) {
		t.Fatal("a buffer is in the pool twice")
	}
	var seen []*byte
	for i := 0; i < 2; i++ {
		if err := a.Send(frame); err != nil {
			t.Fatalf("send: %v", err)
		}
		if err := s.Run(time.Minute); err != nil {
			t.Fatalf("run: %v", err)
		}
		seen = append(seen, last)
	}
	if seen[0] != seen[1] {
		t.Fatal("a steady-state frame did not reuse the pooled buffer")
	}
}

// TestMulticastCorruptionDamagesOnlyItsCopy sends one frame to a two-member
// group whose one egress link corrupts every frame, with that member the
// first and then the last port the switch forwards to. Either way the
// other member gets intact bytes, the damaged copy, which carries no
// verdict, raises its NIC's RxDrops by one, and the buffer the switch took
// from the ingress link is never written: while it is still in flight it
// holds the bytes it arrived with.
func TestMulticastCorruptionDamagesOnlyItsCopy(t *testing.T) {
	for _, corruptFirst := range []bool{true, false} {
		s := sim.New(1)
		sw := NewSwitch(s, "sw", time.Microsecond)
		group := eth.MakeMulticastAddr(0x100)
		client := NewNIC(s, "client", eth.MakeAddr(1))
		in, _ := Connect(s, sw, client, DefaultLANConfig())
		members := make([]*NIC, 2)
		links := make([]*Link, 2)
		for i := range members {
			members[i] = NewNIC(s, "member", eth.MakeAddr(uint32(i+2)))
			var port *SwitchPort
			links[i], port = Connect(s, sw, members[i], DefaultLANConfig())
			members[i].JoinGroup(group)
			sw.JoinGroup(group, port)
		}
		bad, good := 0, 1
		if !corruptFirst {
			bad, good = 1, 0
		}
		links[bad].SetCorruptRate(1)
		var got [][]byte
		members[good].SetHandler(func(f eth.Frame) { got = append(got, bytes.Clone(f.Payload)) })
		payload := bytes.Repeat([]byte{0x5A}, 200)
		if err := client.Send(eth.Frame{Dst: group, Type: eth.TypeIPv4, Payload: payload}); err != nil {
			t.Fatalf("send: %v", err)
		}
		ingress := in.a.pending[in.a.head].frame
		sent := bytes.Clone(ingress)
		// Past the switch, short of either member.
		if err := s.Run(80 * time.Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
		goodFrame := links[good].b.pending[links[good].b.head]
		badFrame := links[bad].b.pending[links[bad].b.head]
		if !goodFrame.fcsOK || badFrame.fcsOK {
			t.Fatalf("corrupt first %v: verdicts %v (intact) and %v (damaged), want true and false", corruptFirst, goodFrame.fcsOK, badFrame.fcsOK)
		}
		if &goodFrame.frame[0] == &ingress[0] && !bytes.Equal(ingress, sent) {
			t.Fatalf("corrupt first %v: the ingress buffer changed in flight", corruptFirst)
		}
		if corruptFirst && &goodFrame.frame[0] != &ingress[0] {
			t.Fatal("the last egress port did not get the ingress buffer itself")
		}
		if flipped := bitsDiffer(badFrame.frame, sent); flipped != 1 {
			t.Fatalf("corrupt first %v: the damaged copy differs from what was sent in %d bits, want 1", corruptFirst, flipped)
		}
		if err := s.Run(time.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], payload) {
			t.Fatalf("corrupt first %v: the intact member received %d frames (%v)", corruptFirst, len(got), got)
		}
		if members[bad].RxDrops != 1 || members[bad].RxFrames != 0 || members[good].RxDrops != 0 {
			t.Fatalf("corrupt first %v: damaged member RxDrops %d RxFrames %d, intact member RxDrops %d; want 1, 0, 0",
				corruptFirst, members[bad].RxDrops, members[bad].RxFrames, members[good].RxDrops)
		}
	}
}

// TestEachDropReturnsItsFrameOnce drives one frame into each way a frame
// can be lost — a cut, a drop window, random loss, a failed NIC at either
// end and a link side with nothing attached — on a fresh link whose pool is
// empty: afterwards the pool holds that one buffer, once.
func TestEachDropReturnsItsFrameOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(l *Link, a, b *NIC)
		from  func(a, b *NIC) *NIC
	}{
		{"cut", func(l *Link, _, _ *NIC) { l.SetCutFromA(true) }, nil},
		{"drop window", func(l *Link, _, _ *NIC) { l.DropFromBFor(time.Second) }, func(_, b *NIC) *NIC { return b }},
		{"random loss", func(l *Link, _, _ *NIC) { l.SetLossRate(1) }, nil},
		{"failed sender", func(_ *Link, a, _ *NIC) { a.Fail() }, nil},
		{"failed receiver", func(_ *Link, _, b *NIC) { b.Fail() }, nil},
		{"unattached side", func(l *Link, a, _ *NIC) { l.Attach(a, nil) }, nil},
	} {
		s := sim.New(1)
		link := NewLink(s, DefaultLANConfig())
		a := NewNIC(s, "a", eth.MakeAddr(1))
		b := NewNIC(s, "b", eth.MakeAddr(2))
		link.Attach(a, b)
		a.AttachToLink(link, true)
		b.AttachToLink(link, false)
		tc.setup(link, a, b)
		from, to := a, b
		if tc.from != nil {
			from, to = tc.from(a, b), a
		}
		_ = from.Send(eth.Frame{Dst: to.Addr(), Type: eth.TypeIPv4, Payload: make([]byte, 100)})
		if err := s.Run(time.Second); err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		if len(link.pool.free) != 1 {
			t.Errorf("%s: the pool holds %d buffers after one lost frame, want 1", tc.name, len(link.pool.free))
		}
		if to.RxFrames != 0 {
			t.Errorf("%s: the frame arrived", tc.name)
		}
	}
}

// distinct reports whether no buffer appears twice in free.
func distinct(free [][]byte) bool {
	seen := make(map[*byte]bool, len(free))
	for _, b := range free {
		p := &b[:1][0]
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// bitsDiffer counts the bits in which a and b, of equal length, differ.
func bitsDiffer(a, b []byte) int {
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}
