package netem

import (
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/sim"
)

// BenchmarkFramePath times one frame along the path every testbed frame
// takes — NIC, link, switch, link, NIC — at the smallest and the largest
// Ethernet frame, and, the path every client segment takes, a full-size
// frame to a two-member multicast group (one link in, two out). Frames go
// in bursts of 32 the way a TCP window leaves a host; the benchmark reports
// the simulator events each frame costs.
func BenchmarkFramePath(b *testing.B) {
	for _, c := range []struct {
		name      string
		size      int
		multicast bool
	}{{"64B", 64, false}, {"1514B", 1514, false}, {"1514B-multicast", 1514, true}} {
		b.Run(c.name, func(b *testing.B) {
			s := sim.New(1)
			sw := NewSwitch(s, "sw", time.Microsecond)
			src := NewNIC(s, "src", eth.MakeAddr(1))
			Connect(s, sw, src, DefaultLANConfig())
			members, dst := 1, eth.MakeAddr(2)
			if c.multicast {
				members, dst = 2, eth.MakeMulticastAddr(0x100)
			}
			received := 0
			for i := 0; i < members; i++ {
				n := NewNIC(s, "dst", eth.MakeAddr(uint32(i+2)))
				_, port := Connect(s, sw, n, DefaultLANConfig())
				n.SetHandler(func(eth.Frame) { received++ })
				if c.multicast {
					n.JoinGroup(dst)
					sw.JoinGroup(dst, port)
				} else if err := n.Send(eth.Frame{Dst: src.Addr(), Type: eth.TypeIPv4, Payload: make([]byte, 46)}); err != nil {
					// dst speaks first, so the switch forwards to its port and does not flood.
					b.Fatal(err)
				}
			}
			frame := eth.Frame{Dst: dst, Type: eth.TypeIPv4, Payload: make([]byte, c.size-eth.HeaderLen-eth.FCSLen)}
			push := func(n int) {
				for sent := 0; sent < n; {
					for i := 0; i < 32 && sent < n; i++ {
						if err := src.Send(frame); err != nil {
							b.Fatal(err)
						}
						sent++
					}
					if err := s.RunUntilIdle(1 << 20); err != nil {
						b.Fatal(err)
					}
				}
			}
			push(256) // fill the frame and delivery pools
			received = 0
			fired := s.Fired()
			b.ReportAllocs()
			b.ResetTimer()
			push(b.N)
			if received != members*b.N {
				b.Fatalf("%d of %d frames arrived", received, members*b.N)
			}
			b.ReportMetric(float64(s.Fired()-fired)/float64(b.N), "events/frame")
		})
	}
}
