package tcp

import (
	"bytes"
	"errors"

	"repro/internal/metrics"
	"repro/internal/netem"
)

// ErrReleased reports a Slice below a Window's base: the bytes were
// released (acknowledged, read, confirmed or evicted) and are gone.
var ErrReleased = errors.New("tcp: requested bytes already released")

// Window is the one store of stream bytes between the wire and the
// application: the bytes of a stream from offset Base up to End, appended
// at the back by Write and trimmed at the front by Release. Offsets are
// absolute stream offsets (offset 0 is the first payload byte after the
// SYN); keeping them 64-bit internally confines 32-bit sequence wraparound
// handling to the wire boundary. A connection's send buffer is a Window of
// unacknowledged bytes, its receive buffer one of unread bytes (on the
// ST-TCP primary, also of bytes the backup has not reported); the logger's
// log is a Window of client bytes.
//
// The bytes live in a ring so that a Release costs an index update, not a
// copy of everything still held: a bulk sender keeps the buffer full, and
// every payload byte is then written once — copied in by Write, or
// generated in place in the spans reserve hands out — and never moved
// again. The ring is grown on demand, at least doubling, up to the
// configured capacity and never beyond it, so a connection that only ever
// has a few bytes outstanding holds only those, and one that reserves its
// whole free space at once allocates the ring once. An empty window whose stream has no
// use for it any more drops the ring (drop): a connection whose peer has
// finished, once every byte is acknowledged, and every window of a crashed
// host. A later Write grows a new one.
type Window struct {
	ring []byte // backing store; len(ring) <= cap is what has been grown so far
	head int    // index in ring of the byte at stream offset base
	n    int    // bytes held
	base int64  // stream offset of the oldest held byte
	cap  int
	// wrapped assembles a slice that straddles the end of the ring. It is
	// sized by the largest such request: one MSS, or one recovery chunk.
	wrapped []byte
}

// NewWindow returns an empty window at offset 0 that holds up to capacity
// bytes.
func NewWindow(capacity int) *Window {
	return &Window{cap: capacity}
}

// Base returns the stream offset of the oldest held byte.
func (b *Window) Base() int64 { return b.base }

// End returns the stream offset one past the last byte written.
func (b *Window) End() int64 { return b.base + int64(b.n) }

// Len reports how many bytes are held.
func (b *Window) Len() int { return b.n }

// Free reports how many bytes may still be written.
func (b *Window) Free() int { return b.cap - b.n }

// Write appends as much of p as fits and returns the number of bytes
// accepted: a reserve and a copy.
//
//sttcp:hotpath
func (b *Window) Write(p []byte) int {
	n := min(len(p), b.Free())
	first, second := b.reserve(n)
	copy(second, p[copy(first, p[:n]):n])
	return n
}

// reserve appends n bytes (n <= Free) for the caller to fill in place and
// returns the ring spans that hold them, in stream order: second is empty
// unless they cross the end of the ring. A ring too small for them grows
// once, to at least the size they need. The spans must be filled before
// the next call on the window.
//
//sttcp:hotpath
func (b *Window) reserve(n int) (first, second []byte) {
	if b.n+n > len(b.ring) {
		b.grow(b.n + n)
	}
	b.n += n
	return b.spans(b.n-n, n)
}

// grow replaces the ring with one at least need bytes long (need <= cap),
// unwrapping the held bytes to its start.
func (b *Window) grow(need int) {
	size := 2 * len(b.ring)
	if size < need {
		size = need
	}
	if size > b.cap {
		size = b.cap
	}
	ring := make([]byte, size)
	first, second := b.spans(0, b.n)
	copy(ring[copy(ring, first):], second)
	b.ring, b.head = ring, 0
}

// drop lets go of the ring and its scratch; nothing may be held (n == 0).
// The race build poisons both first, so an alias a Slice caller kept reads
// 0xDB.
func (b *Window) drop() {
	netem.Poison(b.ring)
	netem.Poison(b.wrapped[:cap(b.wrapped)])
	b.ring, b.wrapped, b.head = nil, nil, 0
}

// spans returns the n held bytes from distance i from the oldest on, in
// place and in stream order: first runs at most to the end of the ring,
// second, empty unless the bytes wrap, from its start (i+n <= n held).
//
//sttcp:hotpath
func (b *Window) spans(i, n int) (first, second []byte) {
	j := b.index(i)
	if j+n <= len(b.ring) {
		return b.ring[j : j+n], nil
	}
	return b.ring[j:], b.ring[:j+n-len(b.ring)]
}

// poison overwrites the n oldest held bytes with 0xDB in the race build
// (netem.Poison), just before they are released, so a slice of them kept
// past that reads poison; it does nothing otherwise.
func (b *Window) poison(n int) {
	if netem.PoisonReleased {
		first, second := b.spans(0, n)
		netem.Poison(first)
		netem.Poison(second)
	}
}

// index maps a distance i <= len(ring) from the oldest held byte to its
// position in the ring.
func (b *Window) index(i int) int {
	i += b.head
	if i >= len(b.ring) {
		i -= len(b.ring)
	}
	return i
}

// Slice returns the stream bytes [off, off+n), clipped to what the window
// holds; below Base it fails with ErrReleased. The result aliases the
// window (or its one scratch area, when the span straddles the end of the
// ring) and must be consumed before the next Write, Release or Slice.
//
//sttcp:hotpath
func (b *Window) Slice(off int64, n int) ([]byte, error) {
	if off < b.base {
		return nil, ErrReleased
	}
	if off-b.base >= int64(b.n) {
		return nil, nil
	}
	start := int(off - b.base)
	if n > b.n-start {
		n = b.n - start
	}
	first, second := b.spans(start, n)
	if len(second) == 0 {
		return first, nil
	}
	if cap(b.wrapped) < n {
		b.wrapped = make([]byte, n)
	}
	w := b.wrapped[:n]
	copy(w[copy(w, first):], second)
	return w, nil
}

// Release discards the bytes below offset upTo. Beyond End it empties the
// window and moves Base there: the stream skipped ahead. The race build
// poisons what it lets go.
//
//sttcp:hotpath
func (b *Window) Release(upTo int64) {
	if upTo <= b.base {
		return
	}
	drop := upTo - b.base
	b.poison(int(min(drop, int64(b.n))))
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

// Reassembler is the one place segments become a stream: payloads arriving
// in any order, duplicated and overlapping, go in; each byte of the stream
// comes out once, in order. Bytes beyond a hole wait in a bounded queue of
// copies; past the bound they are dropped and the sender's retransmission
// brings them back.
type Reassembler struct {
	next    int64        // next in-order stream offset
	ooo     []oooSegment // sorted by off
	oooHeld int          // bytes in ooo
	oooMax  int
}

// NewReassembler returns a reassembler expecting offset 0 that keeps at
// most oooMax out-of-order bytes.
func NewReassembler(oooMax int) *Reassembler {
	return &Reassembler{oooMax: oooMax}
}

// Accept ingests payload at stream offset off. What was delivered before
// is trimmed as a duplicate; what became in-order — the payload, then any
// waiting chunks it connects — is handed to deliver in stream order before
// Accept returns (deliver must not keep its argument), and its length
// returned.
func (r *Reassembler) Accept(off int64, payload []byte, deliver func([]byte)) int {
	if skip := r.next - off; skip > 0 {
		if skip >= int64(len(payload)) {
			return 0
		}
		payload, off = payload[skip:], r.next
	}
	if len(payload) == 0 {
		return 0
	}
	if off > r.next {
		r.insertOOO(off, payload)
		return 0
	}
	before := r.next
	deliver(payload)
	r.next += int64(len(payload))
	r.drainOOO(deliver)
	return int(r.next - before)
}

func (r *Reassembler) insertOOO(off int64, payload []byte) {
	if r.oooHeld+len(payload) > r.oooMax {
		return
	}
	r.oooHeld += len(payload)
	r.ooo = append(r.ooo, oooSegment{off: off, data: bytes.Clone(payload)})
	for i := len(r.ooo) - 1; i > 0 && r.ooo[i].off < r.ooo[i-1].off; i-- {
		r.ooo[i], r.ooo[i-1] = r.ooo[i-1], r.ooo[i]
	}
}

func (r *Reassembler) drainOOO(deliver func([]byte)) {
	for len(r.ooo) > 0 && r.ooo[0].off <= r.next {
		s := r.ooo[0]
		r.ooo = r.ooo[1:]
		r.oooHeld -= len(s.data)
		if s.off+int64(len(s.data)) <= r.next {
			continue // fully duplicate
		}
		s.data = s.data[r.next-s.off:]
		deliver(s.data)
		r.next += int64(len(s.data))
	}
}

// recvBuffer assembles the incoming byte stream: the reassembler, whose
// next offset is RCV.NXT, delivering into the window of in-order bytes not
// yet released, plus the receive-window arithmetic between the two. A byte
// is released once the application has read it and, while the buffer holds
// for a replica (Conn.Hold), once the replica has reported it too.
type recvBuffer struct {
	Reassembler
	win     Window
	size    int   // at most this many unread bytes
	readOff int64 // the application's read offset

	// While holding, hold bounds the bytes delivered but not reported —
	// those from reported on — and unreported counts them.
	hold       int
	reported   int64
	unreported *metrics.Gauge
}

func newRecvBuffer(capacity int) *recvBuffer {
	return &recvBuffer{Reassembler: Reassembler{oooMax: capacity}, win: Window{cap: capacity}, size: capacity}
}

// window returns the receive window to advertise: the unread space, and
// while holding no more than the unreported space.
func (b *recvBuffer) window() int {
	w := b.size - int(b.win.End()-b.readOff)
	if b.hold > 0 {
		w = min(w, b.hold-int(b.win.End()-b.reported))
	}
	return w
}

// peek returns up to n unread in-order bytes in place (Window.spans).
//
//sttcp:hotpath
func (b *recvBuffer) peek(n int) (first, second []byte) {
	n = min(n, int(b.win.End()-b.readOff))
	return b.win.spans(int(b.readOff-b.win.base), n)
}

// discard marks the n oldest unread bytes read and releases what it may.
//
//sttcp:hotpath
func (b *recvBuffer) discard(n int) {
	b.readOff += int64(n)
	b.release()
}

// read copies up to len(p) unread in-order bytes to p: a peek, a copy and
// a discard.
func (b *recvBuffer) read(p []byte) int {
	first, second := b.peek(len(p))
	n := copy(p, first) + copy(p[len(first):], second)
	if n > 0 {
		b.discard(n)
	}
	return n
}

// release lets go of every byte read and, while holding, reported.
func (b *recvBuffer) release() {
	upTo := b.readOff
	if b.hold > 0 {
		upTo = min(upTo, b.reported)
	}
	b.win.Release(upTo)
}

// accept ingests segment payload at absolute stream offset off and returns
// how many in-order bytes it added. Data beyond the receive window is
// truncated.
func (b *recvBuffer) accept(off int64, payload []byte) int {
	limit := b.win.End() + int64(b.window())
	if off >= limit {
		return 0
	}
	if off+int64(len(payload)) > limit {
		payload = payload[:limit-off]
	}
	n := b.Accept(off, payload, func(p []byte) { b.win.Write(p) })
	if b.hold > 0 {
		b.unreported.Add(int64(n))
	}
	return n
}
