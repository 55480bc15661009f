//go:build race

package netem

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestReusedVerdictIsRechecked shows the race build's guard on the intact
// verdict bites at both places that trust it: a link that flips a bit of a
// frame in flight but keeps its verdict hands on bytes the verdict no longer
// covers, and the switch port or NIC that would trust it panics. The race
// build seals every frame as it is sent, so the FCS is there to check.
func TestReusedVerdictIsRechecked(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   time.Duration // when the byte is flipped
		side func(sw *Switch) *linkSide
	}{
		// Short of the switch (about 56 µs).
		{"nic to switch", 20 * time.Microsecond, func(sw *Switch) *linkSide { return sw.ports[0].link.a }},
		// Past the switch, short of b (about 112 µs).
		{"switch to nic", 80 * time.Microsecond, func(sw *Switch) *linkSide { return sw.ports[1].link.b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			a, b, _, _, sw := twoNICs(s, DefaultLANConfig())
			send(t, a, b.Addr(), "intact when sent")
			if err := s.Run(tc.at); err != nil {
				t.Fatalf("run: %v", err)
			}
			side := tc.side(sw)
			d := side.pending[side.head]
			if !d.fcsOK {
				t.Fatal("the frame in flight carries no verdict")
			}
			d.frame[len(d.frame)/2] ^= 0x01
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "FCS verdict") {
					t.Fatalf("bytes the verdict does not cover were accepted: recovered %v", r)
				}
			}()
			_ = s.Run(time.Second)
		})
	}
}
