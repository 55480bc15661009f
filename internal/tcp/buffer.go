package tcp

import (
	"bytes"
	"errors"
	"sort"
)

var errGapInData = errors.New("tcp: internal: requested bytes below buffer base")

// sendBuffer holds the unacknowledged portion of the outgoing byte stream.
// Offsets are absolute stream offsets (offset 0 is the first payload byte
// after the SYN); keeping them 64-bit internally confines 32-bit sequence
// wraparound handling to the wire boundary.
//
// The bytes live in a ring so that an ACK costs an index update, not a
// copy of everything still unacknowledged: a bulk sender keeps the buffer
// full, and every payload byte is then copied in once by write and never
// moved again. The ring is grown on demand, by doubling, up to the
// configured capacity and never beyond it, so a connection that only ever
// has a few bytes outstanding holds only those.
type sendBuffer struct {
	ring []byte // backing store; len(ring) <= cap is what has been grown so far
	head int    // index in ring of the byte at stream offset base
	n    int    // bytes held
	base int64  // stream offset of the oldest unacked byte
	cap  int
	// wrapped assembles a slice that straddles the end of the ring. It is
	// sized by the largest such request, which is one MSS.
	wrapped []byte
}

func newSendBuffer(capacity int) *sendBuffer {
	return &sendBuffer{cap: capacity}
}

// end returns the stream offset one past the last byte written.
func (b *sendBuffer) end() int64 { return b.base + int64(b.n) }

// free reports how many bytes may still be written.
func (b *sendBuffer) free() int { return b.cap - b.n }

// write appends as much of p as fits and returns the number of bytes
// accepted.
//
//sttcp:hotpath
func (b *sendBuffer) write(p []byte) int {
	n := b.free()
	if n > len(p) {
		n = len(p)
	}
	if b.n+n > len(b.ring) {
		b.grow(b.n + n)
	}
	tail := b.index(b.n)
	first := copy(b.ring[tail:], p[:n])
	copy(b.ring, p[first:n])
	b.n += n
	return n
}

// grow replaces the ring with one at least need bytes long (need <= cap),
// unwrapping the held bytes to its start.
func (b *sendBuffer) grow(need int) {
	size := 2 * len(b.ring)
	if size < need {
		size = need
	}
	if size > b.cap {
		size = b.cap
	}
	ring := make([]byte, size)
	first := copy(ring[:b.n], b.ring[b.head:])
	copy(ring[first:b.n], b.ring)
	b.ring, b.head = ring, 0
}

// index maps a distance i <= len(ring) from the oldest held byte to its
// position in the ring.
func (b *sendBuffer) index(i int) int {
	i += b.head
	if i >= len(b.ring) {
		i -= len(b.ring)
	}
	return i
}

// slice returns the stream bytes [off, off+n), clipped to what the buffer
// holds. The result aliases the buffer (or its one scratch area, when the
// span straddles the end of the ring) and must be consumed before the next
// write, release or slice.
//
//sttcp:hotpath
func (b *sendBuffer) slice(off int64, n int) ([]byte, error) {
	if off < b.base {
		return nil, errGapInData
	}
	if off-b.base >= int64(b.n) {
		return nil, nil
	}
	start := int(off - b.base)
	if n > b.n-start {
		n = b.n - start
	}
	i := b.index(start)
	if i+n <= len(b.ring) {
		return b.ring[i : i+n], nil
	}
	if cap(b.wrapped) < n {
		b.wrapped = make([]byte, n)
	}
	w := b.wrapped[:n]
	first := copy(w, b.ring[i:])
	copy(w[first:], b.ring)
	return w, nil
}

// release discards bytes acknowledged up to (not including) offset upTo.
//
//sttcp:hotpath
func (b *sendBuffer) release(upTo int64) {
	if upTo <= b.base {
		return
	}
	drop := upTo - b.base
	if drop >= int64(b.n) {
		b.base, b.head, b.n = upTo, 0, 0
		return
	}
	b.head = b.index(int(drop))
	b.n -= int(drop)
	b.base = upTo
}

// oooSegment is an out-of-order chunk awaiting the bytes before it.
type oooSegment struct {
	off  int64
	data []byte
}

// recvBuffer assembles the incoming byte stream: an in-order queue the
// application reads from, plus a bounded set of out-of-order segments.
type recvBuffer struct {
	data    []byte // in-order, unread bytes
	readOff int64  // stream offset of data[0]
	rcvNxt  int64  // next expected in-order offset (== readOff+len(data))
	cap     int
	ooo     []oooSegment
	oooMax  int
}

func newRecvBuffer(capacity int) *recvBuffer {
	return &recvBuffer{cap: capacity, oooMax: capacity}
}

// window returns the receive window to advertise: capacity minus buffered
// unread bytes.
func (b *recvBuffer) window() int {
	w := b.cap - len(b.data)
	if w < 0 {
		w = 0
	}
	return w
}

// appRead returns the stream offset of the next byte the application will
// read (LastAppByteRead in the paper's heartbeat).
func (b *recvBuffer) appRead() int64 { return b.readOff }

// buffered reports the number of unread in-order bytes.
func (b *recvBuffer) buffered() int { return len(b.data) }

// read copies up to len(p) in-order bytes to p.
func (b *recvBuffer) read(p []byte) int {
	n := copy(p, b.data)
	if n > 0 {
		remaining := copy(b.data, b.data[n:])
		b.data = b.data[:remaining]
		b.readOff += int64(n)
	}
	return n
}

// accept ingests segment payload at absolute stream offset off and returns
// the in-order bytes newly added (for the ST-TCP replication tap), which
// may be empty. Data beyond the window is truncated; data before rcvNxt is
// trimmed as already-received duplicate.
func (b *recvBuffer) accept(off int64, payload []byte) []byte {
	if len(payload) == 0 {
		return nil
	}
	// Trim duplicate prefix.
	if off < b.rcvNxt {
		skip := b.rcvNxt - off
		if skip >= int64(len(payload)) {
			return nil
		}
		payload = payload[skip:]
		off = b.rcvNxt
	}
	// Truncate to window.
	limit := b.readOff + int64(b.cap)
	if off >= limit {
		return nil
	}
	if off+int64(len(payload)) > limit {
		payload = payload[:limit-off]
	}
	if len(payload) == 0 {
		return nil
	}
	if off > b.rcvNxt {
		b.insertOOO(off, payload)
		return nil
	}
	// In order: append, then drain any now-contiguous out-of-order data.
	before := len(b.data)
	b.data = append(b.data, payload...)
	b.rcvNxt += int64(len(payload))
	b.drainOOO()
	return b.data[before:]
}

func (b *recvBuffer) insertOOO(off int64, payload []byte) {
	// Bound total out-of-order bytes.
	total := 0
	for _, s := range b.ooo {
		total += len(s.data)
	}
	if total+len(payload) > b.oooMax {
		return
	}
	b.ooo = append(b.ooo, oooSegment{off: off, data: bytes.Clone(payload)})
	sort.Slice(b.ooo, func(i, j int) bool { return b.ooo[i].off < b.ooo[j].off })
}

func (b *recvBuffer) drainOOO() {
	for len(b.ooo) > 0 {
		s := b.ooo[0]
		if s.off > b.rcvNxt {
			return
		}
		b.ooo = b.ooo[1:]
		if s.off+int64(len(s.data)) <= b.rcvNxt {
			continue // fully duplicate
		}
		s.data = s.data[b.rcvNxt-s.off:]
		b.data = append(b.data, s.data...)
		b.rcvNxt += int64(len(s.data))
	}
}

// oooBytes reports buffered out-of-order bytes (diagnostics).
func (b *recvBuffer) oooBytes() int {
	n := 0
	for _, s := range b.ooo {
		n += len(s.data)
	}
	return n
}
