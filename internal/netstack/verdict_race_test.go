//go:build race

package netstack

import (
	"strings"
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
)

// TestWrongVerdictPanics seeds a wrong sum under each check netstack skips
// on an intact frame. The race build seals every frame as its NIC sends it,
// so the bug is seeded past the seal: between b's NIC, which has checked the
// FCS, and b's stack, the IP header checksum or the UDP checksum is flipped
// or zeroed, and the frame keeps its verdict. The stack, which in the race
// build checks both anyway, panics.
func TestWrongVerdictPanics(t *testing.T) {
	const udpSum = ip.HeaderLen + 6
	for _, tc := range []struct {
		name  string
		alter func(pkt []byte)
	}{
		{"IP header checksum", func(pkt []byte) { pkt[10] ^= 0x01 }},
		{"IP header checksum zero", func(pkt []byte) { pkt[10], pkt[11] = 0, 0 }},
		{"UDP checksum", func(pkt []byte) { pkt[udpSum+1] ^= 0x01 }},
		{"UDP checksum zero", func(pkt []byte) { pkt[udpSum], pkt[udpSum+1] = 0, 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.a.ARP().AddStatic(addrB, f.b.nic.Addr())
			_ = f.b.UDPListen(9, func(ip.Addr, uint16, []byte) { t.Error("the datagram was delivered") })
			f.b.nic.SetReceiver(func(fr eth.Frame, intact bool) {
				tc.alter(fr.Payload)
				f.b.handleFrame(fr, intact)
			})
			if err := f.a.UDPSend(9, addrB, 9, []byte("bad sum")); err != nil {
				t.Fatalf("send: %v", err)
			}
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
