package ip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	p := Packet{
		TOS:     0x10,
		ID:      1234,
		TTL:     17,
		Proto:   ProtoTCP,
		Src:     MakeAddr(10, 0, 0, 1),
		Dst:     MakeAddr(10, 0, 0, 100),
		Payload: []byte("segment bytes"),
	}
	raw, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || got.Proto != p.Proto ||
		got.ID != p.ID || got.TTL != p.TTL || got.TOS != p.TOS ||
		!bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, p)
	}
}

func TestRoundtripProperty(t *testing.T) {
	fn := func(id uint16, src, dst [4]byte, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		p := Packet{ID: id, Proto: ProtoUDP, Src: src, Dst: dst, Payload: payload}
		raw, err := p.AppendEncode(nil)
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		if err != nil {
			return false
		}
		return got.Src == p.Src && got.Dst == p.Dst && bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderCorruptionDetected(t *testing.T) {
	p := Packet{Proto: ProtoTCP, Src: MakeAddr(1, 2, 3, 4), Dst: MakeAddr(5, 6, 7, 8), Payload: []byte("x")}
	raw, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Corrupt each header byte except the version nibble (which fails
	// with a different error) and check the checksum catches it.
	for i := 1; i < HeaderLen; i++ {
		raw[i] ^= 0xff
		if _, err := Decode(raw); err == nil {
			t.Fatalf("corruption at header byte %d not detected", i)
		}
		raw[i] ^= 0xff
	}
}

func TestDefaultTTLApplied(t *testing.T) {
	p := Packet{Proto: ProtoICMP, Src: MakeAddr(1, 1, 1, 1), Dst: MakeAddr(2, 2, 2, 2)}
	raw, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.TTL != DefaultTTL {
		t.Fatalf("TTL = %d, want default %d", got.TTL, DefaultTTL)
	}
}

// TestZeroTTLRejected: a wire TTL of 0 behind a good header checksum is
// refused — AppendEncode would rewrite it as DefaultTTL.
func TestZeroTTLRejected(t *testing.T) {
	p := Packet{Proto: ProtoTCP, Src: MakeAddr(1, 1, 1, 1), Dst: MakeAddr(2, 2, 2, 2)}
	raw, _ := p.AppendEncode(nil)
	raw[8], raw[10], raw[11] = 0, 0, 0
	binary.BigEndian.PutUint16(raw[10:], Checksum(raw[:HeaderLen]))
	if _, err := Decode(raw); !errors.Is(err, ErrZeroTTL) {
		t.Fatalf("err = %v, want ErrZeroTTL", err)
	}
}

func TestBadVersionRejected(t *testing.T) {
	p := Packet{Proto: ProtoTCP, Src: MakeAddr(1, 1, 1, 1), Dst: MakeAddr(2, 2, 2, 2)}
	raw, _ := p.AppendEncode(nil)
	raw[0] = 0x65 // version 6
	if _, err := Decode(raw); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestTooShortRejected(t *testing.T) {
	if _, err := Decode(make([]byte, HeaderLen-1)); !errors.Is(err, ErrPacketTooShort) {
		t.Fatalf("err = %v, want ErrPacketTooShort", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	p := Packet{Payload: make([]byte, MaxPayload+1)}
	if _, err := p.AppendEncode(nil); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example data.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// The trailing byte is padded with zero.
	even := Checksum([]byte{0xab, 0xcd, 0x12, 0x00})
	odd := Checksum([]byte{0xab, 0xcd, 0x12})
	if even != odd {
		t.Fatalf("odd-length checksum %#04x != padded %#04x", odd, even)
	}
}

// TestChecksumSelfVerifies property-checks that embedding the computed
// checksum yields a verifying sum of zero.
func TestChecksumSelfVerifies(t *testing.T) {
	fn := func(data []byte) bool {
		buf := make([]byte, len(data)+2)
		copy(buf[2:], data)
		ck := Checksum(buf)
		buf[0], buf[1] = byte(ck>>8), byte(ck)
		return Checksum(buf) == 0
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPseudoHeaderSum(t *testing.T) {
	src, dst := MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 0, 2)
	a := FinishChecksum(PseudoHeaderSum(src, dst, ProtoTCP, 20))
	b := FinishChecksum(PseudoHeaderSum(dst, src, ProtoTCP, 20))
	if a != b {
		t.Fatalf("pseudo-header sum should be symmetric in src/dst: %#04x vs %#04x", a, b)
	}
	c := FinishChecksum(PseudoHeaderSum(src, dst, ProtoUDP, 20))
	if a == c {
		t.Fatal("different protocols produced identical pseudo-header sums")
	}
}

func TestAddrString(t *testing.T) {
	if got := MakeAddr(10, 0, 0, 100).String(); got != "10.0.0.100" {
		t.Fatalf("String = %q", got)
	}
	// Every octet width in every position renders as %d does.
	for _, a := range []Addr{{}, {0, 9, 10, 99}, {100, 255, 1, 0}, {255, 255, 255, 255}} {
		if got, want := a.String(), fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
	a := MakeAddr(192, 168, 100, 200)
	if n := testing.AllocsPerRun(100, func() { _ = a.String() }); n > 1 {
		t.Fatalf("String allocated %.0f times, want the result only", n)
	}
	if !(Addr{}).IsZero() {
		t.Fatal("zero addr not reported zero")
	}
	if MakeAddr(1, 0, 0, 0).IsZero() {
		t.Fatal("non-zero addr reported zero")
	}
}

// sumWordsRef is SumWords as it was before it summed eight bytes a step: one
// 16-bit word at a time into a 32-bit accumulator. It is the reference the
// fast version must agree with after FinishChecksum (the accumulators
// themselves differ: the fast one is already folded).
func sumWordsRef(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// TestSumWordsMatchesReference covers every frame-sized length — so every
// alignment of the 32-byte run, the 8-byte steps and the 0-7 byte tail — over
// bytes that carry hard (all 0xff), not at all (all zero) and arbitrarily,
// from zero and non-zero incoming sums, alone and chained the way a transport
// checksum chains pseudo-header, header and payload; and every length up to
// 64 at each start offset 0-7.
func TestSumWordsMatchesReference(t *testing.T) {
	const maxLen = 1514
	fills := map[string]func(i int) byte{
		"ones":    func(int) byte { return 0xff },
		"zero":    func(int) byte { return 0 },
		"pattern": func(i int) byte { return byte(i*131 + i>>8 + 7) },
	}
	for name, fill := range fills {
		buf := make([]byte, maxLen)
		for i := range buf {
			buf[i] = fill(i)
		}
		// Every short length at every start offset within a word: the
		// tail's 4-, 2- and 1-byte loads, from any alignment.
		for off := 0; off < 8; off++ {
			for n := 0; n <= 64; n++ {
				data := buf[off : off+n]
				for _, sum := range []uint32{0, 0xffff, 0x0bad_f00d} {
					if got, want := FinishChecksum(SumWords(sum, data)), FinishChecksum(sumWordsRef(sum, data)); got != want {
						t.Fatalf("%s, %d bytes at offset %d, sum %#x: checksum %#04x, reference %#04x", name, n, off, sum, got, want)
					}
				}
			}
		}
		for n := 0; n <= maxLen; n++ {
			data := buf[maxLen-n:] // vary the start too: the pattern differs per n
			for _, sum := range []uint32{0, 1, 0xffff, 0x10000, 0x0bad_f00d} {
				if got, want := FinishChecksum(SumWords(sum, data)), FinishChecksum(sumWordsRef(sum, data)); got != want {
					t.Fatalf("%s, %d bytes, sum %#x: checksum %#04x, reference %#04x", name, n, sum, got, want)
				}
			}
			// Chained: an odd-length first part is padded on its own.
			cut := n / 3
			got := SumWords(SumWords(SumWords(6, data[:cut]), data[cut:n/2]), data[n/2:])
			want := sumWordsRef(sumWordsRef(sumWordsRef(6, data[:cut]), data[cut:n/2]), data[n/2:])
			if FinishChecksum(got) != FinishChecksum(want) {
				t.Fatalf("%s, %d bytes chained at %d and %d: checksum %#04x, reference %#04x",
					name, n, cut, n/2, FinishChecksum(got), FinishChecksum(want))
			}
		}
	}
	if got := SumWords(0, make([]byte, 64)); got != 0 {
		t.Fatalf("all-zero input sums to %#x, want 0 (the checksum 0xffff, not 0)", got)
	}
}

// FuzzSumWords checks the same agreement on arbitrary bytes and incoming
// sums. The reference's 32-bit accumulator must not overflow, so the fuzzer's
// sum is halved and its data capped at what 2^31 can hold.
func FuzzSumWords(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0xffff), []byte{0xff})
	f.Add(uint32(0x1234_5678), bytes.Repeat([]byte{0xff, 0x00, 0x80}, 500))
	f.Fuzz(func(t *testing.T, sum uint32, data []byte) {
		sum >>= 1
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		if got, want := FinishChecksum(SumWords(sum, data)), FinishChecksum(sumWordsRef(sum, data)); got != want {
			t.Fatalf("sum %#x over %d bytes: checksum %#04x, reference %#04x", sum, len(data), got, want)
		}
	})
}

// FuzzDecode feeds the packet decoder what a corrupting link can deliver:
// arbitrary bytes. It must never panic, and a packet it accepts must survive
// its own codec.
func FuzzDecode(f *testing.F) {
	for _, p := range []Packet{
		{TOS: 0x10, ID: 1234, TTL: 17, Proto: ProtoTCP, Src: MakeAddr(10, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 100), Payload: []byte("segment bytes")},
		{ID: 7, DontFrag: true, Proto: ProtoUDP, Src: MakeAddr(10, 0, 0, 2), Dst: MakeAddr(10, 0, 0, 3)},
	} {
		raw, err := p.AppendEncode(nil)
		if err != nil {
			f.Fatalf("encode seed: %v", err)
		}
		f.Add(raw)
		f.Add(append(raw, 0xff, 0xee)) // link padding past the total length
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Decode(raw)
		if err != nil {
			return
		}
		enc, err := p.AppendEncode(nil)
		if err != nil {
			t.Fatalf("a decoded packet does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if again.TOS != p.TOS || again.ID != p.ID || again.DontFrag != p.DontFrag || again.TTL != p.TTL ||
			again.Proto != p.Proto || again.Src != p.Src || again.Dst != p.Dst || !bytes.Equal(again.Payload, p.Payload) {
			t.Fatalf("round trip changed the packet:\n got %+v\nwant %+v", again, p)
		}
	})
}
