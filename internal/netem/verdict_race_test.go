//go:build race

package netem

import (
	"strings"
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/udp"
)

// udpPacket is an IPv4 packet from 10.0.0.1 to 10.0.0.2 carrying a UDP
// datagram with payload, its IP header checksum and its UDP checksum true.
func udpPacket(t *testing.T, payload string) []byte {
	t.Helper()
	src, dst := ip.MakeAddr(10, 0, 0, 1), ip.MakeAddr(10, 0, 0, 2)
	d := udp.Datagram{SrcPort: 9, DstPort: 9, Payload: []byte(payload)}
	p := ip.Packet{TTL: ip.DefaultTTL, Proto: ip.ProtoUDP, Src: src, Dst: dst, Payload: d.AppendEncode(nil, src, dst)}
	pkt, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return pkt
}

// TestReusedVerdictIsRechecked shows the race build's guard on the intact
// verdict bites wherever a frame's integrity is decided. A frame in flight
// is altered but keeps its verdict. A flipped bit leaves bytes the FCS no
// longer covers, and the switch port or the NIC that would trust it
// panics. A flipped or zeroed IP header, UDP or TCP sum, its FCS written
// afresh over it, passes the switch, which checks only the FCS, and the
// receiving NIC panics. The race build seals every frame as it is sent, so
// every sum is there to check; a datagram must carry one.
func TestReusedVerdictIsRechecked(t *testing.T) {
	// Short of the switch (about 56 µs), and past it, short of b (about
	// 112 µs).
	toSwitch := func(sw *Switch) *linkSide { return sw.ports[0].link.a }
	toNIC := func(sw *Switch) *linkSide { return sw.ports[1].link.b }
	const near, far = 20 * time.Microsecond, 80 * time.Microsecond
	flipBit := func(frame []byte) { frame[len(frame)/2] ^= 0x01 }
	// sum alters the bytes at off in the IP packet and writes the FCS anew.
	sum := func(off int, zero bool) func(frame []byte) {
		return func(frame []byte) {
			at := eth.HeaderLen + off
			if zero {
				frame[at], frame[at+1] = 0, 0
			} else {
				frame[at+1] ^= 0x01
			}
			eth.Seal(frame)
		}
	}
	const ipSum, udpSum, tcpSum = 10, ip.HeaderLen + 6, ip.HeaderLen + 16
	for _, tc := range []struct {
		name  string
		pkt   func(t *testing.T, payload string) []byte
		at    time.Duration
		side  func(sw *Switch) *linkSide
		alter func(frame []byte)
		want  string // in the panic
	}{
		{"nic to switch", tcpPacket, near, toSwitch, flipBit, "FCS verdict"},
		{"switch to nic", tcpPacket, far, toNIC, flipBit, "FCS verdict"},
		{"IP header checksum", udpPacket, far, toNIC, sum(ipSum, false), "intact verdict"},
		{"IP header checksum zero", udpPacket, far, toNIC, sum(ipSum, true), "intact verdict"},
		{"UDP checksum", udpPacket, far, toNIC, sum(udpSum, false), "intact verdict"},
		{"UDP checksum zero", udpPacket, far, toNIC, sum(udpSum, true), "udp: no checksum"},
		{"TCP checksum", tcpPacket, far, toNIC, sum(tcpSum, false), "intact verdict"},
		{"TCP checksum zero", tcpPacket, far, toNIC, sum(tcpSum, true), "intact verdict"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			a, b, _, _, sw := twoNICs(s, DefaultLANConfig())
			if err := a.Send(eth.Frame{Dst: b.Addr(), Type: eth.TypeIPv4, Payload: tc.pkt(t, "intact when sent")}); err != nil {
				t.Fatalf("send: %v", err)
			}
			if err := s.Run(tc.at); err != nil {
				t.Fatalf("run: %v", err)
			}
			side := tc.side(sw)
			d := side.pending[side.head]
			if !d.fcsOK {
				t.Fatal("the frame in flight carries no verdict")
			}
			tc.alter(d.frame)
			defer func() {
				r := recover()
				if s, ok := r.(string); !ok || !strings.Contains(s, tc.want) {
					t.Fatalf("bytes the verdict does not cover were accepted: recovered %v, want a panic naming %q", r, tc.want)
				}
			}()
			_ = s.Run(time.Second)
		})
	}
}
