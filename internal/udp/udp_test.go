package udp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ip"
)

var (
	testSrc = ip.MakeAddr(10, 0, 0, 2)
	testDst = ip.MakeAddr(10, 0, 0, 3)
)

func TestRoundtrip(t *testing.T) {
	d := Datagram{SrcPort: 7000, DstPort: 7000, Payload: []byte("heartbeat")}
	got, err := Decode(testSrc, testDst, d.AppendEncode(nil, testSrc, testDst))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.SrcPort != d.SrcPort || got.DstPort != d.DstPort || !bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, d)
	}
}

func TestRoundtripProperty(t *testing.T) {
	fn := func(sp, dp uint16, src, dst [4]byte, payload []byte) bool {
		if len(payload) > ip.MaxPayload-HeaderLen {
			payload = payload[:ip.MaxPayload-HeaderLen]
		}
		d := Datagram{SrcPort: sp, DstPort: dp, Payload: payload}
		got, err := Decode(src, dst, d.AppendEncode(nil, src, dst))
		return err == nil && got.SrcPort == sp && got.DstPort == dp && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumCoversAddresses(t *testing.T) {
	d := Datagram{SrcPort: 1, DstPort: 2, Payload: []byte("x")}
	raw := d.AppendEncode(nil, testSrc, testDst)
	// Decoding against different addresses must fail: the pseudo-header
	// protects against misdelivery. (Note merely swapping src and dst
	// would NOT fail — ones-complement addition is commutative.)
	other := ip.MakeAddr(192, 168, 9, 9)
	if _, err := Decode(other, testDst, raw); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestPayloadCorruptionDetected(t *testing.T) {
	d := Datagram{SrcPort: 1, DstPort: 2, Payload: []byte("abcdef")}
	raw := d.AppendEncode(nil, testSrc, testDst)
	raw[HeaderLen+2] ^= 0x01
	if _, err := Decode(testSrc, testDst, raw); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestTooShort(t *testing.T) {
	if _, err := Decode(testSrc, testDst, make([]byte, HeaderLen-1)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestLengthFieldMismatch(t *testing.T) {
	d := Datagram{SrcPort: 1, DstPort: 2, Payload: []byte("abc")}
	raw := d.AppendEncode(nil, testSrc, testDst)
	raw[4], raw[5] = 0xff, 0xff // absurd length
	if _, err := Decode(testSrc, testDst, raw); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
}

func TestTrailingBytesIgnored(t *testing.T) {
	// IP may deliver a padded payload; the UDP length field governs.
	d := Datagram{SrcPort: 9, DstPort: 10, Payload: []byte("data")}
	raw := d.AppendEncode(nil, testSrc, testDst)
	padded := append(raw, 0, 0, 0)
	got, err := Decode(testSrc, testDst, padded)
	if err != nil {
		t.Fatalf("decode padded: %v", err)
	}
	if !bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("payload = %q, want %q", got.Payload, d.Payload)
	}
}

// FuzzDecode feeds the datagram decoder what a corrupting link can deliver:
// arbitrary bytes between fixed addresses. It must never panic, and a
// datagram it accepts — checksummed or not (a zero checksum means none) —
// must survive its own codec, which always checksums.
func FuzzDecode(f *testing.F) {
	for _, d := range []Datagram{
		{SrcPort: 7000, DstPort: 7000, Payload: []byte("heartbeat")},
		{SrcPort: 7001, DstPort: 7001},
	} {
		raw := d.AppendEncode(nil, testSrc, testDst)
		f.Add(raw)
		unsummed := bytes.Clone(raw)
		unsummed[6], unsummed[7] = 0, 0
		f.Add(unsummed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := Decode(testSrc, testDst, raw)
		if err != nil {
			return
		}
		again, err := Decode(testSrc, testDst, d.AppendEncode(nil, testSrc, testDst))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if again.SrcPort != d.SrcPort || again.DstPort != d.DstPort || !bytes.Equal(again.Payload, d.Payload) {
			t.Fatalf("round trip changed the datagram:\n got %+v\nwant %+v", again, d)
		}
	})
}
