//go:build race

package netstack

import (
	"strings"
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/udp"
)

// TestWrongVerdictPanics seeds an encoder bug under each check netstack
// skips on an intact frame: a NIC sends a packet whose IP header checksum,
// or whose UDP checksum, its encoder got wrong. The frame's verdict says
// its checksums hold, and the race build, which checks them anyway, panics.
func TestWrongVerdictPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(f *fixture)
	}{
		{"IP header checksum", func(f *fixture) {
			d := udp.Datagram{SrcPort: 9, DstPort: 9, Payload: []byte("bad header")}
			frame := d.AppendEncode(f.a.NewFrame(), addrA, addrB)
			p := ip.Packet{TTL: ip.DefaultTTL, Proto: ip.ProtoUDP, Src: addrA, Dst: addrB}
			p.PutHeader(frame[eth.HeaderLen:])
			frame[eth.HeaderLen+10] ^= 0x01
			_ = f.a.nic.Transmit(f.b.nic.Addr(), eth.TypeIPv4, frame)
		}},
		{"UDP checksum", func(f *fixture) {
			d := udp.Datagram{SrcPort: 9, DstPort: 9, Payload: []byte("bad datagram")}
			frame := d.AppendEncode(f.a.NewFrame(), addrA, addrB)
			frame[Headroom+7] ^= 0x01
			_ = f.a.SendFrame(addrA, addrB, ip.ProtoUDP, frame)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.a.ARP().AddStatic(addrB, f.b.nic.Addr())
			_ = f.b.UDPListen(9, func(ip.Addr, uint16, []byte) { t.Error("the datagram was delivered") })
			tc.send(f)
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "intact verdict") {
					t.Fatalf("checksums the verdict does not cover were accepted: recovered %v", r)
				}
			}()
			_ = f.sim.Run(time.Second)
		})
	}
}
