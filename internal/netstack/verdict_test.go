package netstack

import (
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/udp"
)

// rawUDP encodes a whole frame from a to b carrying a UDP datagram to port,
// with breakPkt applied to the IP packet before the FCS is written.
func (f *fixture) rawUDP(port uint16, breakPkt func(pkt []byte)) []byte {
	d := udp.Datagram{SrcPort: port, DstPort: port, Payload: []byte("no verdict")}
	p := ip.Packet{TTL: ip.DefaultTTL, Proto: ip.ProtoUDP, Src: addrA, Dst: addrB, Payload: d.AppendEncode(nil, addrA, addrB)}
	pkt, _ := p.AppendEncode(nil)
	breakPkt(pkt)
	fr := eth.Frame{Dst: f.b.nic.Addr(), Src: f.a.nic.Addr(), Type: eth.TypeIPv4, Payload: pkt}
	buf, _ := fr.AppendEncode(nil)
	return buf
}

// TestFrameWithoutVerdictIsChecked sends frames with a good FCS but no
// verdict, as a link's TransmitFromA does, past the IP and UDP checks: b's
// NIC refuses a bad header checksum or a bad UDP checksum and counts it in
// RxDrops, and the intact datagram is delivered.
func TestFrameWithoutVerdictIsChecked(t *testing.T) {
	for _, tc := range []struct {
		name      string
		breakPkt  func(pkt []byte)
		delivered bool
		drops     int64
	}{
		{"intact", func([]byte) {}, true, 0},
		{"IP header checksum", func(pkt []byte) { pkt[10] ^= 0x01 }, false, 1},
		{"UDP checksum", func(pkt []byte) { pkt[ip.HeaderLen+7] ^= 0x01 }, false, 1},
	} {
		f := newFixture(t)
		got := false
		_ = f.b.UDPListen(9, func(ip.Addr, uint16, []byte) { got = true })
		f.link.TransmitFromA(f.rawUDP(9, tc.breakPkt))
		if err := f.sim.Run(time.Second); err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		if got != tc.delivered {
			t.Errorf("%s: delivered %v, want %v", tc.name, got, tc.delivered)
		}
		if drops := f.b.nic.RxDrops; drops != tc.drops {
			t.Errorf("%s: b's NIC RxDrops %d, want %d", tc.name, drops, tc.drops)
		}
	}
}
