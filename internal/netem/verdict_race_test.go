//go:build race

package netem

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestReusedVerdictIsRechecked shows the race build's guard on the FCS
// verdict bites: a byte of a frame flipped after the switch verified it,
// while it is in flight to the NIC, is a verdict the bytes no longer bear,
// and the NIC that would reuse it panics.
func TestReusedVerdictIsRechecked(t *testing.T) {
	s := sim.New(1)
	a, b, _, _, sw := twoNICs(s, DefaultLANConfig())
	send(t, a, b.Addr(), "verified once")
	// Past the switch (about 56 µs), short of b (about 112 µs).
	if err := s.Run(80 * time.Microsecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sw.ports[1].link.b
	d := out.pending[out.head]
	if !d.fcsOK {
		t.Fatal("the frame in flight to b carries no verdict")
	}
	d.frame[len(d.frame)/2] ^= 0x01
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "FCS verdict") {
			t.Fatalf("the NIC accepted bytes its verdict does not cover: recovered %v", r)
		}
	}()
	_ = s.Run(time.Second)
}
