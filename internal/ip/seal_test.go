package ip_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/ip"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// FuzzSeal holds ip.Seal, which writes a frame's sums where something can
// read them, and ip.Verify, the receiving NIC's check of them, to three
// rules.
//
// Seal never panics, whatever the bytes, and it writes only what the full
// decoders then accept: bytes ip.Parse refuses are left as they are, a
// packet it takes carries a header checksum ip.Decode accepts, a TCP
// segment or UDP datagram its parser takes a checksum its Decode accepts (a
// datagram a non-zero one), and any other protocol's payload is left alone.
//
// Verify passes bytes ip.Parse refuses, for the stack to judge, and on any
// others, sealed or not, accepts exactly when ip.Decode does and then
// tcp.Decode or udp.Decode, by protocol.
//
// And a packet a stack writes, its sums zero (AppendUnsealed behind
// PutUnsealedHeader), is the full encoders' packet with its sum fields
// zeroed, and Seal turns it into the full encoders' packet byte for byte,
// which Verify accepts.
func FuzzSeal(f *testing.F) {
	src, dst := ip.MakeAddr(10, 0, 0, 1), ip.MakeAddr(10, 0, 0, 100)
	seg := tcp.Segment{SrcPort: 49152, DstPort: 80, Seq: 1000, Flags: tcp.FlagSYN, Window: 65535, MSS: 1460}
	d := udp.Datagram{SrcPort: 9, DstPort: 9, Payload: []byte("heartbeat")}
	for _, p := range []ip.Packet{
		{ID: 1, Proto: ip.ProtoTCP, Src: src, Dst: dst, Payload: seg.AppendEncode(nil, src, dst)},
		{ID: 2, Proto: ip.ProtoUDP, Src: src, Dst: dst, Payload: d.AppendEncode(nil, src, dst)},
		{ID: 3, Proto: ip.ProtoICMP, Src: src, Dst: dst, Payload: []byte{8, 0, 0, 0, 0, 1, 0, 1}},
	} {
		raw, err := p.AppendEncode(nil)
		if err != nil {
			f.Fatalf("encode seed: %v", err)
		}
		f.Add(raw, p.Proto == ip.ProtoUDP, uint16(80), uint32(1000), uint8(tcp.FlagSYN), []byte("payload"))
	}
	f.Fuzz(func(t *testing.T, raw []byte, datagram bool, port uint16, seq uint32, flags uint8, payload []byte) {
		sealed := bytes.Clone(raw)
		ip.Seal(sealed)
		checkSealed(t, raw, sealed)
		checkVerify(t, raw)
		checkVerify(t, sealed)

		proto, room := ip.ProtoTCP, ip.MaxPayload-tcp.HeaderLen-4
		if datagram {
			proto, room = ip.ProtoUDP, ip.MaxPayload-udp.HeaderLen
		}
		if len(payload) > room {
			payload = payload[:room]
		}
		seg := tcp.Segment{SrcPort: port, DstPort: ^port, Seq: seq, Ack: ^seq, Flags: tcp.Flags(flags), Window: port, MSS: uint16(seq), Payload: payload}
		d := udp.Datagram{SrcPort: port, DstPort: ^port, Payload: payload}
		hdr := ip.Packet{ID: uint16(seq), TTL: ip.DefaultTTL, Proto: proto, Src: src, Dst: dst}
		var unsealed []byte
		if datagram {
			hdr.Payload = d.AppendEncode(nil, src, dst)
			unsealed = d.AppendUnsealed(make([]byte, ip.HeaderLen))
		} else {
			hdr.Payload = seg.AppendEncode(nil, src, dst)
			unsealed = seg.AppendUnsealed(make([]byte, ip.HeaderLen))
		}
		hdr.PutUnsealedHeader(unsealed)
		full, err := hdr.AppendEncode(nil)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		zeroed := bytes.Clone(full)
		zeroed[10], zeroed[11] = 0, 0
		at := ip.HeaderLen + 16
		if datagram {
			at = ip.HeaderLen + 6
		}
		zeroed[at], zeroed[at+1] = 0, 0
		if !bytes.Equal(unsealed, zeroed) {
			t.Fatalf("the stack's writers and the full encoders disagree past their sums:\n% x\n% x", unsealed, zeroed)
		}
		ip.Seal(unsealed)
		if !bytes.Equal(unsealed, full) {
			t.Fatalf("Seal did not restore the encoded packet:\n got % x\nwant % x", unsealed, full)
		}
		if err := ip.Verify(unsealed); err != nil {
			t.Fatalf("Verify refused a packet Seal wrote: %v", err)
		}
	})
}

// checkSealed holds sealed, raw after ip.Seal, to Seal's first rule.
func checkSealed(t *testing.T, raw, sealed []byte) {
	t.Helper()
	p, err := ip.Parse(sealed)
	if err != nil {
		if !bytes.Equal(raw, sealed) {
			t.Fatalf("Seal wrote bytes Parse refuses (%v)", err)
		}
		return
	}
	if _, err := ip.Decode(sealed); err != nil {
		t.Fatalf("the sealed header: %v", err)
	}
	switch p.Proto {
	case ip.ProtoTCP:
		if _, err := tcp.Parse(p.Payload); err == nil {
			if _, err := tcp.Decode(p.Src, p.Dst, p.Payload); err != nil {
				t.Fatalf("the sealed segment: %v", err)
			}
		}
	case ip.ProtoUDP:
		if _, err := udp.Parse(p.Payload); err == nil {
			if _, err := udp.Decode(p.Src, p.Dst, p.Payload); err != nil || binary.BigEndian.Uint16(p.Payload[6:]) == 0 {
				t.Fatalf("the sealed datagram: %v, checksum % x", err, p.Payload[6:8])
			}
		}
	default:
		if !bytes.Equal(raw[ip.HeaderLen:], sealed[ip.HeaderLen:]) {
			t.Fatalf("Seal wrote the payload of a %v packet", p.Proto)
		}
	}
}

// checkVerify holds ip.Verify on pkt to FuzzSeal's second rule.
func checkVerify(t *testing.T, pkt []byte) {
	t.Helper()
	got := ip.Verify(pkt)
	p, err := ip.Parse(pkt)
	if err != nil {
		if got != nil {
			t.Fatalf("Verify refused bytes Parse leaves to the stack (%v): %v", err, got)
		}
		return
	}
	_, want := ip.Decode(pkt)
	if want == nil {
		switch p.Proto {
		case ip.ProtoTCP:
			_, want = tcp.Decode(p.Src, p.Dst, p.Payload)
		case ip.ProtoUDP:
			_, want = udp.Decode(p.Src, p.Dst, p.Payload)
		}
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("Verify says %v, the full decoders %v", got, want)
	}
}
