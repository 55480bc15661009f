package netem

import (
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/sim"
)

// lan is a switch with NICs a and b on it and the links that join them.
type lan struct {
	sim          *sim.Simulator
	sw           *Switch
	a, b         *NIC
	linkA, linkB *Link
}

func newLAN() *lan {
	s := sim.New(1)
	l := &lan{sim: s, sw: NewSwitch(s, "sw", time.Microsecond)}
	l.a = NewNIC(s, "a", eth.MakeAddr(1))
	l.b = NewNIC(s, "b", eth.MakeAddr(2))
	l.linkA, _ = Connect(s, l.sw, l.a, DefaultLANConfig())
	l.linkB, _ = Connect(s, l.sw, l.b, DefaultLANConfig())
	return l
}

// TestDamageIsRejectedAtTheNextCheck flips one bit of a frame on each kind
// of hop and sends raw frames past the switch: each damaged or mis-sealed
// frame is refused by the next FCS check, whatever verdict the frame left
// its sender with, and every counter reads what it read when every hop
// checked the FCS. One frame goes out per case. Only a frame a NIC sent
// reaches b's receiver with an intact verdict; a raw frame the switch
// checked does not.
func TestDamageIsRejectedAtTheNextCheck(t *testing.T) {
	payload := []byte("forty-six bytes of payload, the Ethernet least")
	raw := func(l *lan, breakFCS bool) []byte {
		f := eth.Frame{Dst: l.b.Addr(), Src: l.a.Addr(), Type: eth.TypeIPv4, Payload: payload}
		buf, err := f.AppendEncode(l.linkA.pool.get(0))
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if breakFCS {
			buf[len(buf)-1] ^= 0x01
		}
		return buf
	}
	for _, tc := range []struct {
		name string
		run  func(l *lan)
		// corrupted is Link.Corrupted of linkA and linkB, forwarded the
		// switch's Forwarded: a frame the switch refused is not forwarded.
		corrupted        [2]int64
		forwarded        int64
		rxFrames, rxDrop int64
		intact           bool
	}{
		{"sent by a NIC", func(l *lan) {
			_ = l.a.Send(eth.Frame{Dst: l.b.Addr(), Type: eth.TypeIPv4, Payload: payload})
		}, [2]int64{0, 0}, 1, 1, 0, true},
		{"nic to switch", func(l *lan) {
			l.linkA.SetCorruptRate(1)
			_ = l.a.Send(eth.Frame{Dst: l.b.Addr(), Type: eth.TypeIPv4, Payload: payload})
		}, [2]int64{1, 0}, 0, 0, 0, false},
		{"switch to nic", func(l *lan) {
			l.linkB.SetCorruptRate(1)
			_ = l.a.Send(eth.Frame{Dst: l.b.Addr(), Type: eth.TypeIPv4, Payload: payload})
		}, [2]int64{0, 1}, 1, 0, 1, false},
		{"switch to nic, set while the frame is on its way", func(l *lan) {
			_ = l.a.Send(eth.Frame{Dst: l.b.Addr(), Type: eth.TypeIPv4, Payload: payload})
			l.linkB.SetCorruptRate(1)
		}, [2]int64{0, 1}, 1, 0, 1, false},
		{"raw frame with a bad FCS", func(l *lan) { l.linkA.TransmitFromA(raw(l, true)) }, [2]int64{0, 0}, 0, 0, 0, false},
		{"raw frame with a good FCS", func(l *lan) { l.linkA.TransmitFromA(raw(l, false)) }, [2]int64{0, 0}, 1, 1, 0, false},
	} {
		l := newLAN()
		intact := false
		l.b.SetReceiver(func(_ eth.Frame, ok bool) { intact = ok })
		tc.run(l)
		if err := l.sim.Run(time.Second); err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		got := [2]int64{l.linkA.Corrupted, l.linkB.Corrupted}
		if got != tc.corrupted || l.sw.Forwarded != tc.forwarded || l.b.RxFrames != tc.rxFrames || l.b.RxDrops != tc.rxDrop {
			t.Errorf("%s: Corrupted %v, switch forwarded %d, b RxFrames %d RxDrops %d; want %v, %d, %d, %d",
				tc.name, got, l.sw.Forwarded, l.b.RxFrames, l.b.RxDrops, tc.corrupted, tc.forwarded, tc.rxFrames, tc.rxDrop)
		}
		if intact != tc.intact {
			t.Errorf("%s: b's receiver was handed intact %v, want %v", tc.name, intact, tc.intact)
		}
	}
}

// TestDamageOnANICToNICLink is the same rule without a switch: the
// receiving NIC is the first check a damaged frame meets.
func TestDamageOnANICToNICLink(t *testing.T) {
	s := sim.New(1)
	link := NewLink(s, DefaultLANConfig())
	a, b := NewNIC(s, "a", eth.MakeAddr(1)), NewNIC(s, "b", eth.MakeAddr(2))
	link.Attach(a, b)
	a.AttachToLink(link, true)
	b.AttachToLink(link, false)
	link.SetCorruptRate(1)
	send(t, a, b.Addr(), "one frame, one bit flipped")
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if link.Corrupted != 1 || b.RxDrops != 1 || b.RxFrames != 0 {
		t.Fatalf("Corrupted %d, RxDrops %d, RxFrames %d; want 1, 1, 0", link.Corrupted, b.RxDrops, b.RxFrames)
	}
}

// TestDamagedCopyCarriesTheTrueFCS sends a frame whose FCS no one has
// written — no link of the switch damaged frames when it left — and only
// then makes the egress link corrupt: the link seals its copy before it
// flips a bit, so the frame in flight to b differs in exactly one bit from
// the fully encoded frame, FCS included.
func TestDamagedCopyCarriesTheTrueFCS(t *testing.T) {
	l := newLAN()
	f := eth.Frame{Dst: l.b.Addr(), Src: l.a.Addr(), Type: eth.TypeIPv4, Payload: []byte("sealed late, by the link that damages it")}
	if err := l.a.Send(f); err != nil {
		t.Fatalf("send: %v", err)
	}
	l.linkB.SetCorruptRate(1)
	// Past the switch (about 56 µs), short of b (about 112 µs).
	if err := l.sim.Run(80 * time.Microsecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	d := l.linkB.b.pending[l.linkB.b.head]
	if d.fcsOK {
		t.Fatal("the damaged frame kept an intact verdict")
	}
	want, err := f.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n := bitsDiffer(d.frame, want); n != 1 {
		t.Fatalf("the damaged frame differs from the encoded one in %d bits, want 1", n)
	}
}
