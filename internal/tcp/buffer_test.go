package tcp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSendBufferBasics(t *testing.T) {
	b := NewWindow(10)
	if n := b.Write([]byte("hello")); n != 5 {
		t.Fatalf("write = %d", n)
	}
	if n := b.Write([]byte("worldXYZ")); n != 5 {
		t.Fatalf("overfull write accepted %d, want 5", n)
	}
	if b.Free() != 0 {
		t.Fatalf("free = %d", b.Free())
	}
	got, err := b.Slice(0, 10)
	if err != nil || string(got) != "helloworld" {
		t.Fatalf("slice = %q, %v", got, err)
	}
	b.Release(5)
	if b.base != 5 || b.Free() != 5 {
		t.Fatalf("after release: base=%d free=%d", b.base, b.Free())
	}
	got, err = b.Slice(5, 5)
	if err != nil || string(got) != "world" {
		t.Fatalf("slice after release = %q, %v", got, err)
	}
	if _, err := b.Slice(3, 2); err == nil {
		t.Fatal("slice below base did not error")
	}
}

func TestSendBufferReleaseBeyondEnd(t *testing.T) {
	b := NewWindow(10)
	b.Write([]byte("abc"))
	b.Release(100)
	if b.base != 100 || b.End() != 100 || b.Free() != 10 {
		t.Fatalf("release beyond end: base=%d end=%d free=%d", b.base, b.End(), b.Free())
	}
}

func TestSendBufferSliceClipped(t *testing.T) {
	b := NewWindow(10)
	b.Write([]byte("abcdef"))
	got, err := b.Slice(4, 100)
	if err != nil || string(got) != "ef" {
		t.Fatalf("clipped slice = %q, %v", got, err)
	}
	got, err = b.Slice(6, 5)
	if err != nil || got != nil {
		t.Fatalf("slice past end = %q, %v", got, err)
	}
}

// TestReserveAcrossTheWrap: a reserve whose bytes run past the end of the
// ring hands out two spans, the end of the ring then its start, and what is
// written into them is the stream in order.
func TestReserveAcrossTheWrap(t *testing.T) {
	b := NewWindow(8)
	b.Write([]byte("abcdefgh"))
	b.Release(6)
	b.Write([]byte("ijkl"))
	b.Release(10) // "kl" held at ring indices 2 and 3; the tail is index 4
	first, second := b.reserve(6)
	if len(b.ring) != 8 || len(first) != 4 || len(second) != 2 || &first[0] != &b.ring[4] || &second[0] != &b.ring[0] {
		t.Fatalf("reserve(6) in a ring of %d with tail 4 = spans of %d and %d, want the ring's last 4 then its first 2",
			len(b.ring), len(first), len(second))
	}
	copy(first, "mnop")
	copy(second, "qr")
	if got, err := b.Slice(10, 8); err != nil || string(got) != "klmnopqr" || b.Free() != 0 {
		t.Fatalf("held after the reserve = %q, %v (%d free), want klmnopqr and a full window", got, err, b.Free())
	}
}

// TestFirstReserveAllocatesOnce: the first reserve on an empty window makes
// one allocation, the ring at the size asked for, not a ring grown by
// doubling towards it.
func TestFirstReserveAllocatesOnce(t *testing.T) {
	const runs, n = 100, 100_000
	ws := make([]*Window, runs+1)
	for i := range ws {
		ws[i] = NewWindow(256 << 10)
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() { ws[i].reserve(n); i++ }); allocs != 1 {
		t.Fatalf("a first reserve allocated %.1f times, want once", allocs)
	}
	for _, w := range ws {
		if len(w.ring) != n || cap(w.ring) != n || w.Len() != n {
			t.Fatalf("ring of %d (cap %d) holding %d after reserve(%d), want exactly %d", len(w.ring), cap(w.ring), w.Len(), n, n)
		}
	}
}

// TestSendBufferProperty property-checks that any write/release/slice
// sequence preserves the byte stream.
func TestSendBufferProperty(t *testing.T) {
	fn := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewWindow(256)
		var shadow []byte // full stream ever written
		for _, op := range ops {
			switch op % 3 {
			case 0: // write random bytes
				chunk := make([]byte, rng.Intn(64))
				rng.Read(chunk)
				n := b.Write(chunk)
				shadow = append(shadow, chunk[:n]...)
			case 1: // release some prefix
				if b.End() > b.base {
					b.Release(b.base + int64(rng.Intn(int(b.End()-b.base)+1)))
				}
			case 2: // slice and compare with shadow
				if b.End() > b.base {
					off := b.base + int64(rng.Intn(int(b.End()-b.base)))
					n := rng.Intn(64) + 1
					got, err := b.Slice(off, n)
					if err != nil {
						return false
					}
					want := shadow[off:]
					if len(want) > len(got) {
						want = want[:len(got)]
					}
					if !bytes.Equal(got, want) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refWindow is the copy-down buffer the ring replaced, kept as the
// reference model: same contract, O(held) per release.
type refWindow struct {
	data []byte
	base int64
	cap  int
}

func (b *refWindow) end() int64 { return b.base + int64(len(b.data)) }
func (b *refWindow) free() int  { return b.cap - len(b.data) }

func (b *refWindow) write(p []byte) int {
	n := b.free()
	if n > len(p) {
		n = len(p)
	}
	b.data = append(b.data, p[:n]...)
	return n
}

func (b *refWindow) slice(off int64, n int) ([]byte, error) {
	if off < b.base {
		return nil, ErrReleased
	}
	start := int(off - b.base)
	if start >= len(b.data) {
		return nil, nil
	}
	stop := start + n
	if stop > len(b.data) {
		stop = len(b.data)
	}
	return b.data[start:stop], nil
}

func (b *refWindow) release(upTo int64) {
	if upTo <= b.base {
		return
	}
	drop := upTo - b.base
	if drop >= int64(len(b.data)) {
		b.base = upTo
		b.data = b.data[:0]
		return
	}
	remaining := copy(b.data, b.data[drop:])
	b.data = b.data[:remaining]
	b.base = upTo
}

// windowOp encodes one step of a window script: three bytes, the
// kind and a 16-bit operand (see driveWindows).
func windowOp(kind byte, v int) []byte { return []byte{kind, byte(v >> 8), byte(v)} }

// driveWindows runs one script against the ring and the reference
// model and fails on the first difference in end/free/base, in the bytes a
// slice returns, or in the whole held content. Per op, with operand v:
//
//	kind&3 == 0  write v bytes (clipped by both to what fits); with kind&4
//	             the ring takes them in place: reserve what fits, fill it
//	kind&3 == 1  release to base + v mod (held+2): up to one past the end
//	kind&3 == 2  slice at base + v mod (held+1), 1 + 24*(kind>>2) bytes
//	kind&3 == 3  slice 1 + v mod 3 bytes below base: both must refuse
func driveWindows(t *testing.T, capacity int, script []byte) {
	t.Helper()
	ring := NewWindow(capacity)
	ref := &refWindow{cap: capacity}
	var written int64
	for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
		kind, v := script[0], int(script[1])<<8|int(script[2])
		held := int(ref.end() - ref.base)
		switch kind & 3 {
		case 0:
			p := make([]byte, v)
			for i := range p {
				off := written + int64(i)
				p[i] = byte(off*131 + off>>8)
			}
			var n int
			if kind&4 == 0 {
				n = ring.Write(p)
			} else { // in place: reserve what fits and fill it
				n = min(v, ring.Free())
				first, second := ring.reserve(n)
				copy(second, p[copy(first, p):])
			}
			if want := ref.write(p); n != want {
				t.Fatalf("step %d: write(%d) accepted %d, reference %d", step, v, n, want)
			}
			written += int64(n)
		case 1:
			upTo := ref.base + int64(v%(held+2))
			ring.Release(upTo)
			ref.release(upTo)
		case 2:
			off, n := ref.base+int64(v%(held+1)), 1+24*int(kind>>2)
			got, err := ring.Slice(off, n)
			want, _ := ref.slice(off, n)
			if err != nil || !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("step %d: slice(%d, %d) = %d bytes, %v; reference %d bytes", step, off, n, len(got), err, len(want))
			}
		case 3:
			off := ref.base - 1 - int64(v%3)
			if _, err := ring.Slice(off, 4); err == nil {
				t.Fatalf("step %d: slice(%d) below base %d did not error", step, off, ring.base)
			}
		}
		if ring.End() != ref.end() || ring.Free() != ref.free() || ring.base != ref.base {
			t.Fatalf("step %d (kind %d, v %d): end/free/base = %d/%d/%d, reference %d/%d/%d",
				step, kind&3, v, ring.End(), ring.Free(), ring.base, ref.end(), ref.free(), ref.base)
		}
		if len(ring.ring) > capacity {
			t.Fatalf("step %d: ring grew to %d, capacity %d", step, len(ring.ring), capacity)
		}
		if got := heldBytes(ring); !bytes.Equal(got, ref.data) {
			t.Fatalf("step %d: held bytes differ from reference (%d held)", step, len(ref.data))
		}
	}
}

// heldBytes reads the ring's whole content through slice, one span at a
// time so the scratch area is exercised too.
func heldBytes(b *Window) []byte {
	var out []byte
	for off := b.base; off < b.End(); {
		p, err := b.Slice(off, 1460)
		if err != nil || len(p) == 0 {
			return nil
		}
		out = append(out, p...)
		off += int64(len(p))
	}
	return out
}

// TestSendBufferMatchesReference drives the ring and the copy-down buffer
// it replaced with the same seeded random scripts at capacities on both
// sides of every boundary that matters: a single byte, a prime, one MSS, a
// power of two, and sizes that are neither.
func TestSendBufferMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 7, 1460, 4096, 3000, 100_003} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			steps := 600
			if capacity > 4096 {
				steps = 150
			}
			var script []byte
			for i := 0; i < steps; i++ {
				kind := byte(rng.Intn(256))
				v := rng.Intn(1 << 16)
				if kind&3 == 0 && rng.Intn(3) > 0 {
					// Mostly partial writes, so the ring is grown in
					// steps and wraps before it reaches capacity.
					v = rng.Intn(capacity/3 + 2)
				}
				script = append(script, windowOp(kind, v)...)
			}
			driveWindows(t, capacity, script)
		}
	}
}

// TestSendBufferGrowWhileWrapped pins the one path a random script reaches
// only by luck: the ring must grow while its content straddles the end.
func TestSendBufferGrowWhileWrapped(t *testing.T) {
	b := NewWindow(16)
	b.Write([]byte("abcd"))
	b.Release(2)
	b.Write([]byte("ef")) // ring of 4: "efcd", head at 'c'
	if len(b.ring) != 4 || b.head != 2 {
		t.Fatalf("set-up: ring %d head %d, want 4 and 2", len(b.ring), b.head)
	}
	if got, _ := b.Slice(3, 3); string(got) != "def" {
		t.Fatalf("straddling slice = %q, want def", got)
	}
	if n := b.Write([]byte("ghi")); n != 3 {
		t.Fatalf("write = %d", n)
	}
	if len(b.ring) != 8 || b.head != 0 {
		t.Fatalf("after growth: ring %d head %d, want 8 and 0", len(b.ring), b.head)
	}
	if got, _ := b.Slice(2, 16); string(got) != "cdefghi" {
		t.Fatalf("after growth = %q, want cdefghi", got)
	}
	b.Write(bytes.Repeat([]byte("z"), 100))
	if len(b.ring) != 16 || b.Free() != 0 {
		t.Fatalf("ring %d free %d, want the full 16 and 0", len(b.ring), b.Free())
	}
}

// BenchmarkSendBufferFull is a bulk sender's steady state: a 256 KiB
// buffer kept full, one MSS acknowledged, written and sliced per op.
func BenchmarkSendBufferFull(b *testing.B) {
	const size, mss = 256 << 10, 1460
	sb := NewWindow(size)
	sb.Write(make([]byte, size))
	p := make([]byte, mss)
	b.ReportAllocs()
	b.SetBytes(mss)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Release(sb.base + mss)
		sb.Write(p)
		seg, _ := sb.Slice(sb.End()-mss, mss)
		benchSink += len(seg)
	}
}

var benchSink int

// delivered accepts payload at off into b and returns the in-order bytes it
// added, aliasing the buffer.
func delivered(b *recvBuffer, off int64, payload []byte) []byte {
	n := b.accept(off, payload)
	if n == 0 {
		return nil
	}
	got, _ := b.win.Slice(b.win.End()-int64(n), n)
	return got
}

func TestRecvBufferInOrder(t *testing.T) {
	b := newRecvBuffer(100)
	got := delivered(b, 0, []byte("hello"))
	if string(got) != "hello" || b.next != 5 {
		t.Fatalf("accept = %q, rcvNxt=%d", got, b.next)
	}
	p := make([]byte, 10)
	if n := b.read(p); n != 5 || string(p[:5]) != "hello" {
		t.Fatalf("read = %d %q", n, p[:n])
	}
	if b.readOff != 5 {
		t.Fatalf("appRead = %d", b.readOff)
	}
}

func TestRecvBufferDuplicateTrimmed(t *testing.T) {
	b := newRecvBuffer(100)
	delivered(b, 0, []byte("abcdef"))
	got := delivered(b, 3, []byte("defghi")) // overlaps 3 bytes
	if string(got) != "ghi" || b.next != 9 {
		t.Fatalf("overlap accept = %q rcvNxt=%d", got, b.next)
	}
	if got := delivered(b, 0, []byte("abc")); got != nil {
		t.Fatalf("full duplicate returned %q", got)
	}
}

// Both payloads arrive in one frame buffer, as they do from a link, which
// reissues it once accept has returned: a kept out-of-order chunk is a copy.
func TestRecvBufferOutOfOrderReassembly(t *testing.T) {
	b := newRecvBuffer(100)
	frame := []byte("fghij")
	if got := delivered(b, 5, frame); got != nil {
		t.Fatalf("ooo accept delivered %q", got)
	}
	if b.oooHeld != 5 {
		t.Fatalf("oooBytes = %d", b.oooHeld)
	}
	copy(frame, "abcde")
	got := delivered(b, 0, frame)
	if string(got) != "abcdefghij" {
		t.Fatalf("reassembly delivered %q", got)
	}
	if b.next != 10 || b.oooHeld != 0 {
		t.Fatalf("rcvNxt=%d ooo=%d", b.next, b.oooHeld)
	}
}

func TestRecvBufferWindowTruncation(t *testing.T) {
	b := newRecvBuffer(8)
	got := delivered(b, 0, []byte("0123456789")) // 10 bytes into an 8-byte window
	if string(got) != "01234567" {
		t.Fatalf("accepted %q", got)
	}
	if b.window() != 0 {
		t.Fatalf("window = %d, want 0", b.window())
	}
	// Data fully beyond the window is refused.
	if got := delivered(b, 8, []byte("89")); got != nil {
		t.Fatalf("beyond-window accept delivered %q", got)
	}
	p := make([]byte, 4)
	b.read(p)
	if b.window() != 4 {
		t.Fatalf("window after read = %d, want 4", b.window())
	}
}

// TestRecvBufferAcrossTheWrap: partial reads move the ring's head, so a
// later segment lands across its end. What accept delivers and what read
// copies out still follow the stream.
func TestRecvBufferAcrossTheWrap(t *testing.T) {
	b := newRecvBuffer(8)
	p := make([]byte, 8)
	delivered(b, 0, []byte("abcdefgh"))
	b.read(p[:6])
	delivered(b, 8, []byte("ijk"))
	b.read(p[:4]) // one byte left, at index 2 of 8
	if got := delivered(b, 11, []byte("lmnopqr")); string(got) != "lmnopqr" {
		t.Fatalf("accept across the end of the ring delivered %q, want lmnopqr", got)
	}
	if b.win.head+b.win.n <= len(b.win.ring) {
		t.Fatalf("set-up: head %d + %d held in a ring of %d does not wrap", b.win.head, b.win.n, len(b.win.ring))
	}
	if n := b.read(p); n != 8 || string(p) != "klmnopqr" || b.readOff != 18 || b.window() != 8 {
		t.Fatalf("read across the end of the ring = %d %q (read offset %d, window %d), want 8 klmnopqr at 18 with 8 free",
			n, p[:n], b.readOff, b.window())
	}
}

// TestRecvBufferShuffledSegmentsProperty delivers a stream chopped into
// random segments in random order (with duplicates) and checks perfect
// reassembly — the invariant the backup's tap and recovery path rely on.
func TestRecvBufferShuffledSegmentsProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(2000) + 1
		stream := make([]byte, size)
		rng.Read(stream)
		type seg struct {
			off int64
			b   []byte
		}
		var segs []seg
		for off := 0; off < size; {
			n := rng.Intn(200) + 1
			if off+n > size {
				n = size - off
			}
			segs = append(segs, seg{int64(off), stream[off : off+n]})
			off += n
		}
		// Shuffle and duplicate some segments.
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		segs = append(segs, segs[:len(segs)/3]...)

		b := newRecvBuffer(size + 4096)
		var out []byte
		for _, sg := range segs {
			out = append(out, delivered(b, sg.off, sg.b)...)
		}
		return bytes.Equal(out, stream) && b.next == int64(size)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
