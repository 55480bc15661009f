package tcp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ip"
)

var (
	segSrc = ip.MakeAddr(10, 0, 0, 1)
	segDst = ip.MakeAddr(10, 0, 0, 100)
)

func TestSegmentRoundtrip(t *testing.T) {
	s := Segment{
		SrcPort: 49152,
		DstPort: 80,
		Seq:     0xdeadbeef,
		Ack:     0x01020304,
		Flags:   FlagACK | FlagPSH,
		Window:  8192,
		Payload: []byte("segment payload"),
	}
	got, err := Decode(segSrc, segDst, s.AppendEncode(nil, segSrc, segDst))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.SrcPort != s.SrcPort || got.DstPort != s.DstPort || got.Seq != s.Seq ||
		got.Ack != s.Ack || got.Flags != s.Flags || got.Window != s.Window ||
		!bytes.Equal(got.Payload, s.Payload) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, s)
	}
}

func TestSegmentMSSOptionOnlyOnSYN(t *testing.T) {
	syn := Segment{Flags: FlagSYN, MSS: 1460}
	got, err := Decode(segSrc, segDst, syn.AppendEncode(nil, segSrc, segDst))
	if err != nil || got.MSS != 1460 {
		t.Fatalf("SYN MSS = %d, %v", got.MSS, err)
	}
	data := Segment{Flags: FlagACK, MSS: 1460}
	got, err = Decode(segSrc, segDst, data.AppendEncode(nil, segSrc, segDst))
	if err != nil || got.MSS != 0 {
		t.Fatalf("non-SYN carried MSS option: %d, %v", got.MSS, err)
	}
}

func TestSegmentRoundtripProperty(t *testing.T) {
	fn := func(sp, dp uint16, seq, ack uint32, flags uint8, wnd uint16, payload []byte) bool {
		if len(payload) > ip.MaxPayload-HeaderLen-optMSSLen {
			payload = payload[:ip.MaxPayload-HeaderLen-optMSSLen]
		}
		s := Segment{
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags:  Flags(flags) & (FlagFIN | FlagSYN | FlagRST | FlagPSH | FlagACK),
			Window: wnd, Payload: payload,
		}
		if s.Flags.Has(FlagSYN) {
			s.MSS = 1460
		}
		got, err := Decode(segSrc, segDst, s.AppendEncode(nil, segSrc, segDst))
		return err == nil && got.Seq == s.Seq && got.Ack == s.Ack &&
			got.Flags == s.Flags && bytes.Equal(got.Payload, s.Payload)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentChecksumCoversPayload(t *testing.T) {
	s := Segment{Flags: FlagACK, Payload: []byte("abcdef")}
	raw := s.AppendEncode(nil, segSrc, segDst)
	raw[len(raw)-1] ^= 0x40
	if _, err := Decode(segSrc, segDst, raw); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestSegmentChecksumCoversAddresses(t *testing.T) {
	s := Segment{Flags: FlagACK}
	raw := s.AppendEncode(nil, segSrc, segDst)
	other := ip.MakeAddr(192, 168, 1, 1)
	if _, err := Decode(other, segDst, raw); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum (pseudo-header not covered)", err)
	}
}

func TestSegLen(t *testing.T) {
	cases := []struct {
		seg  Segment
		want int
	}{
		{Segment{Payload: []byte("abc")}, 3},
		{Segment{Flags: FlagSYN}, 1},
		{Segment{Flags: FlagFIN, Payload: []byte("ab")}, 3},
		{Segment{Flags: FlagSYN | FlagFIN}, 2},
		{Segment{Flags: FlagACK}, 0},
	}
	for i, c := range cases {
		if got := c.seg.SegLen(); got != c.want {
			t.Errorf("case %d: SegLen = %d, want %d", i, got, c.want)
		}
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SYN|ACK" {
		t.Fatalf("String = %q", s)
	}
	if s := Flags(0).String(); s != "-" {
		t.Fatalf("String = %q", s)
	}
}

// TestSeqDeltaWraparound checks signed distance across the 2^32 wrap,
// which the whole offset-unwrapping scheme depends on.
func TestSeqDeltaWraparound(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int32
	}{
		{5, 3, 2},
		{3, 5, -2},
		{0, 0xffffffff, 1},           // wrapped forward
		{0xffffffff, 0, -1},          // wrapped backward
		{0x80000000, 0, -2147483648}, // edge of the window
	}
	for i, c := range cases {
		if got := seqDelta(c.a, c.b); got != c.want {
			t.Errorf("case %d: seqDelta(%#x,%#x) = %d, want %d", i, c.a, c.b, got, c.want)
		}
	}
}

// TestSeqDeltaProperty: delta is the inverse of addition for distances
// within ±2^31.
func TestSeqDeltaProperty(t *testing.T) {
	fn := func(base uint32, d int32) bool {
		return seqDelta(base+uint32(d), base) == d
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}
