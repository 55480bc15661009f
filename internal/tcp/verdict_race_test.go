//go:build race

package tcp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/netstack"
)

// TestWrongChecksumVerdictPanics seeds an encoder that writes a wrong TCP
// checksum: a's stack sends the segment through its netstack and NIC, so it
// arrives with an intact verdict, and b's stack, which in the race build
// checks the checksum it would otherwise skip, panics.
func TestWrongChecksumVerdictPanics(t *testing.T) {
	h := newPair(t, 1, netem.DefaultLANConfig(), Options{})
	seg := Segment{SrcPort: 40000, DstPort: 9, Seq: 1, Flags: FlagSYN, Window: 1024}
	frame := seg.AppendEncode(h.stackA.ns.NewFrame(), addrA, addrB)
	frame[netstack.Headroom+16] ^= 0x01
	if err := h.stackA.ns.SendFrame(addrA, addrB, ip.ProtoTCP, frame); err != nil {
		t.Fatalf("send: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "intact verdict") {
			t.Fatalf("a checksum the verdict does not cover was accepted: recovered %v", r)
		}
	}()
	_ = h.sim.Run(time.Second)
}
