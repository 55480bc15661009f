package netem

import "repro/internal/eth"

// bufPool recycles the frame buffers of one Link. The simulation is
// single-threaded, so no locking is needed; a
// buffer returns to the pool as soon as its synchronous consumer is done
// with it. Buffers are allocated at eth.MaxFrameLen capacity so every
// standard frame reuses them regardless of size.
type bufPool struct {
	free [][]byte
}

// get returns a length-n buffer, reusing a pooled one when it fits.
func (p *bufPool) get(n int) []byte {
	if m := len(p.free); m > 0 {
		b := p.free[m-1]
		p.free[m-1] = nil
		p.free = p.free[:m-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	c := n
	if c < eth.MaxFrameLen {
		c = eth.MaxFrameLen
	}
	return make([]byte, n, c)
}

// put returns a buffer to the pool. The caller must not touch b afterwards:
// the race build overwrites it, so a borrower that kept an alias reads poison.
func (p *bufPool) put(b []byte) {
	if PoisonReleased {
		b = b[:cap(b)]
		b[0] = 0xDB
		for n := 1; n < len(b); n *= 2 { // by doubling: a byte loop is slow under -race
			copy(b[n:], b[:n])
		}
	}
	p.free = append(p.free, b)
}
