package arp

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/eth"
	"repro/internal/ip"
)

func TestPacketRoundtrip(t *testing.T) {
	p := Packet{
		Op:       OpRequest,
		SenderHW: eth.MakeAddr(1),
		SenderIP: ip.MakeAddr(10, 0, 0, 1),
		TargetIP: ip.MakeAddr(10, 0, 0, 100),
	}
	got, err := Decode(p.AppendEncode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != p {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, p)
	}
}

func TestPacketRoundtripProperty(t *testing.T) {
	fn := func(op bool, shw, thw uint32, sip, tip [4]byte) bool {
		p := Packet{
			Op:       OpRequest,
			SenderHW: eth.MakeAddr(shw),
			TargetHW: eth.MakeAddr(thw),
			SenderIP: sip,
			TargetIP: tip,
		}
		if op {
			p.Op = OpReply
		}
		got, err := Decode(p.AppendEncode(nil))
		return err == nil && got == p
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsShort(t *testing.T) {
	if _, err := Decode(make([]byte, PacketLen-1)); !errors.Is(err, ErrPacketTooShort) {
		t.Fatalf("err = %v, want ErrPacketTooShort", err)
	}
}

func TestDecodeRejectsWrongHardware(t *testing.T) {
	p := Packet{Op: OpRequest}
	raw := p.AppendEncode(nil)
	raw[0] = 0xff // hardware type
	if _, err := Decode(raw); !errors.Is(err, ErrNotEthIPv4) {
		t.Fatalf("err = %v, want ErrNotEthIPv4", err)
	}
}

func TestTableLearnAndLookup(t *testing.T) {
	tbl := NewTable()
	a := ip.MakeAddr(10, 0, 0, 1)
	hw := eth.MakeAddr(1)
	if _, ok := tbl.Lookup(a); ok {
		t.Fatal("empty table resolved an address")
	}
	tbl.Learn(a, hw)
	got, ok := tbl.Lookup(a)
	if !ok || got != hw {
		t.Fatalf("lookup = %v, %v", got, ok)
	}
	hw2 := eth.MakeAddr(2)
	tbl.Learn(a, hw2)
	if got, _ := tbl.Lookup(a); got != hw2 {
		t.Fatal("dynamic entry was not updated by Learn")
	}
}

// TestStaticEntrySurvivesLearn checks the property the testbed depends on:
// the serviceIP→multiEA pin must never be displaced by dynamic traffic.
func TestStaticEntrySurvivesLearn(t *testing.T) {
	tbl := NewTable()
	service := ip.MakeAddr(10, 0, 0, 100)
	group := eth.MakeMulticastAddr(0x100)
	tbl.AddStatic(service, group)
	tbl.Learn(service, eth.MakeAddr(9))
	got, ok := tbl.Lookup(service)
	if !ok || got != group {
		t.Fatalf("static entry displaced: %v", got)
	}
	if !tbl.entries[service].static {
		t.Fatal("entry no longer static")
	}
	if len(tbl.entries) != 1 {
		t.Fatalf("len = %d, want 1", len(tbl.entries))
	}
}

// FuzzDecode feeds the ARP decoder what a corrupting link can deliver:
// arbitrary bytes. It must never panic, and a packet it accepts must survive
// its own codec.
func FuzzDecode(f *testing.F) {
	for _, p := range []Packet{
		{Op: OpRequest, SenderHW: eth.MakeAddr(1), SenderIP: ip.MakeAddr(10, 0, 0, 1), TargetIP: ip.MakeAddr(10, 0, 0, 100)},
		{Op: OpReply, SenderHW: eth.MakeAddr(2), SenderIP: ip.MakeAddr(10, 0, 0, 2), TargetHW: eth.MakeAddr(1), TargetIP: ip.MakeAddr(10, 0, 0, 1)},
	} {
		f.Add(p.AppendEncode(nil))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Decode(raw)
		if err != nil {
			return
		}
		again, err := Decode(p.AppendEncode(nil))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if again != p {
			t.Fatalf("round trip changed the packet:\n got %+v\nwant %+v", again, p)
		}
	})
}
