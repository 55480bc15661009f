package tcp

import (
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/netem"
)

// TestSegmentWithoutVerdictIsChecked hands b out-of-the-blue SYNs in
// frames with a good FCS but no verdict, as a link's TransmitFromA does:
// the intact one draws a RST, and b's NIC refuses one with a bad TCP
// checksum before demux and counts it in RxDrops.
func TestSegmentWithoutVerdictIsChecked(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flip  byte
		rst   int64
		drops int64
	}{{"intact", 0, 1, 0}, {"bad checksum", 0x01, 0, 1}} {
		h := newPair(t, 1, netem.DefaultLANConfig(), Options{})
		seg := Segment{SrcPort: 40000, DstPort: 9, Seq: 1, Flags: FlagSYN, Window: 1024}
		raw := seg.AppendEncode(nil, addrA, addrB)
		raw[16] ^= tc.flip
		p := ip.Packet{TTL: ip.DefaultTTL, Proto: ip.ProtoTCP, Src: addrA, Dst: addrB, Payload: raw}
		pkt, _ := p.AppendEncode(nil)
		f := eth.Frame{Dst: h.nicB.Addr(), Src: h.nicA.Addr(), Type: eth.TypeIPv4, Payload: pkt}
		buf, _ := f.AppendEncode(nil)
		h.link.TransmitFromA(buf)
		if err := h.sim.Run(time.Second); err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		if h.stackB.Received != tc.rst || h.stackB.Emitted != tc.rst {
			t.Errorf("%s: b accepted %d segments and sent %d, want %d and %d", tc.name, h.stackB.Received, h.stackB.Emitted, tc.rst, tc.rst)
		}
		if h.nicB.RxDrops != tc.drops {
			t.Errorf("%s: b's NIC RxDrops %d, want %d", tc.name, h.nicB.RxDrops, tc.drops)
		}
	}
}
