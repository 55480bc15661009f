package netem

import (
	"fmt"
	"testing"

	"repro/internal/eth"
	"repro/internal/sim"
)

// BenchmarkFramePath times one frame along the path every testbed frame
// takes — NIC, link, switch, link, NIC — at the smallest and the largest
// Ethernet frame, in bursts of 32 the way a TCP window leaves a host, and
// reports the simulator events each frame costs.
func BenchmarkFramePath(b *testing.B) {
	for _, size := range []int{64, 1514} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			s := sim.New(1)
			src, dst, _, _, _ := twoNICs(s, DefaultLANConfig())
			received := 0
			dst.SetHandler(func(eth.Frame) { received++ })
			// dst speaks first, so the switch forwards to its port and does not flood.
			if err := dst.Send(eth.Frame{Dst: src.Addr(), Type: eth.TypeIPv4, Payload: make([]byte, 46)}); err != nil {
				b.Fatal(err)
			}
			frame := eth.Frame{Dst: dst.Addr(), Type: eth.TypeIPv4, Payload: make([]byte, size-eth.HeaderLen-eth.FCSLen)}
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
			if received != b.N {
				b.Fatalf("%d of %d frames arrived", received, b.N)
			}
			b.ReportMetric(float64(s.Fired()-fired)/float64(b.N), "events/frame")
		})
	}
}
