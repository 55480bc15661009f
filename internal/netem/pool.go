package netem

import "repro/internal/eth"

// poolFrames is what a frame pool keeps per link drawing on it, and what a
// link's pool of delivery records keeps. A steady state reuses as many
// frames as a link has in flight at once: at most 47 for a 100 Mbit/s bulk
// download, 9 for a ping-pong exchange. A burst beyond the bound — a
// thousand connections served from one host put up to 6,911 on one link —
// leaves its extra frames to the collector instead of holding them for the
// rest of the run.
const poolFrames = 64

// bufPool recycles frame buffers, keeping at most limit of them. A link
// made alone has a pool of its own; every link of one switch, and every NIC
// on those links, draws on the switch's, so a frame goes back to the pool it
// came from however many hops it took. The simulation is single-threaded,
// so no locking is needed. Buffers are allocated at eth.MaxFrameLen
// capacity so every standard frame reuses them regardless of size. A nil
// pool allocates every buffer and keeps none.
type bufPool struct {
	free  [][]byte
	limit int
}

// get returns a length-n buffer, reusing a pooled one when it fits.
func (p *bufPool) get(n int) []byte {
	if p != nil {
		if m := len(p.free); m > 0 {
			b := p.free[m-1]
			p.free[m-1] = nil
			p.free = p.free[:m-1]
			if cap(b) >= n {
				return b[:n]
			}
		}
	}
	c := n
	if c < eth.MaxFrameLen {
		c = eth.MaxFrameLen
	}
	return make([]byte, n, c)
}

// put returns a buffer to the pool, or past the bound lets it go. The caller
// must not touch b afterwards: the race build overwrites it either way, so a
// borrower that kept an alias reads poison.
func (p *bufPool) put(b []byte) {
	Poison(b[:cap(b)])
	if p != nil && len(p.free) < p.limit {
		p.free = append(p.free, b)
	}
}

// Poison overwrites b with 0xDB in the race build (PoisonReleased) and does
// nothing otherwise. Whatever ends a borrowed span's lifetime calls it, so
// an alias that outlived its call reads poison, not the next user's bytes.
func Poison(b []byte) {
	if !PoisonReleased || len(b) == 0 {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 { // by doubling: a byte loop is slow under -race
		copy(b[n:], b[:n])
	}
}
