//go:build race

package tcp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
)

// TestWrongChecksumVerdictPanics seeds a wrong TCP checksum past the seal:
// a's stack sends a SYN through its netstack and NIC, which in the race
// build seals it, and between b's netstack and b's stack the checksum is
// flipped or zeroed while the segment keeps its intact verdict. b's stack,
// which in the race build checks the checksum it would otherwise skip,
// panics.
func TestWrongChecksumVerdictPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alter func(seg []byte)
	}{
		{"flipped", func(seg []byte) { seg[17] ^= 0x01 }},
		{"zero", func(seg []byte) { seg[16], seg[17] = 0, 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newPair(t, 1, netem.DefaultLANConfig(), Options{})
			h.stackB.ns.RegisterTCP(func(pkt ip.Packet, intact bool) {
				tc.alter(pkt.Payload)
				h.stackB.handlePacket(pkt, intact)
			})
			h.stackA.send(&Segment{SrcPort: 40000, DstPort: 9, Seq: 1, Flags: FlagSYN, Window: 1024}, addrA, addrB)
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "intact verdict") {
					t.Fatalf("a checksum the verdict does not cover was accepted: recovered %v", r)
				}
			}()
			_ = h.sim.Run(time.Second)
		})
	}
}

// impureSource gives different bytes each time it is asked: every read is
// filled with the count of reads so far.
type impureSource struct{ reads byte }

func (s *impureSource) ReadAt(p []byte, _ int64) (int, error) {
	s.reads++
	for i := range p {
		p[i] = s.reads
	}
	return len(p), nil
}

// TestImpureSourcePanics seeds a source that breaks WriteFrom's contract:
// the race build reads every sourced span twice and panics when the two
// reads differ, where the plain build would send whatever the first gave.
func TestImpureSourcePanics(t *testing.T) {
	w := NewWindow(4096)
	w.WriteFrom(3000, &impureSource{})
	defer func() {
		r := recover()
		if s, ok := r.(string); !ok || !strings.Contains(s, "two answers") {
			t.Fatalf("a source that answered twice differently was accepted: recovered %v", r)
		}
	}()
	_, _ = w.Slice(0, DefaultMSS)
}
