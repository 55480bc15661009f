package eth

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	f := Frame{
		Dst:     MakeAddr(2),
		Src:     MakeAddr(1),
		Type:    TypeIPv4,
		Payload: []byte("hello ethernet"),
	}
	raw, err := f.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Dst != f.Dst || got.Src != f.Src || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, f)
	}
}

func TestRoundtripProperty(t *testing.T) {
	fn := func(dst, src uint32, mcast bool, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		f := Frame{Src: MakeAddr(src), Type: TypeARP, Payload: payload}
		if mcast {
			f.Dst = MakeMulticastAddr(dst)
		} else {
			f.Dst = MakeAddr(dst)
		}
		raw, err := f.AppendEncode(nil)
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		if err != nil {
			return false
		}
		return got.Dst == f.Dst && got.Src == f.Src && got.Type == f.Type && bytes.Equal(got.Payload, f.Payload)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	f := Frame{Dst: MakeAddr(2), Src: MakeAddr(1), Type: TypeIPv4, Payload: []byte("payload")}
	raw, err := f.AppendEncode(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for i := range raw {
		raw[i] ^= 0x01
		if _, err := Decode(raw); !errors.Is(err, ErrBadFCS) {
			t.Fatalf("flip at byte %d not detected: %v", i, err)
		}
		raw[i] ^= 0x01
	}
}

func TestTooShort(t *testing.T) {
	if _, err := Decode(make([]byte, HeaderLen)); !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("err = %v, want ErrFrameTooShort", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	f := Frame{Payload: make([]byte, MaxPayload+1)}
	if _, err := f.AppendEncode(nil); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("err = %v, want ErrFrameTooLong", err)
	}
}

// TestDecodeRejectsOversizedPayload: a frame one byte past the MTU, with a
// good FCS, is refused as AppendEncode refuses to write it.
func TestDecodeRejectsOversizedPayload(t *testing.T) {
	raw := make([]byte, HeaderLen+MaxPayload+1)
	raw = binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
	if _, err := Decode(raw); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("err = %v, want ErrFrameTooLong", err)
	}
}

func TestAddressClasses(t *testing.T) {
	if MakeAddr(7).IsMulticast() {
		t.Fatal("unicast address reports multicast")
	}
	if !MakeMulticastAddr(7).IsMulticast() {
		t.Fatal("multicast address does not report multicast")
	}
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() {
		t.Fatal("broadcast classification wrong")
	}
	if MakeAddr(1) == MakeAddr(2) {
		t.Fatal("distinct indices produced identical addresses")
	}
	if MakeAddr(9).String() != "02:00:00:00:00:09" {
		t.Fatalf("String = %q", MakeAddr(9).String())
	}
}

// FuzzDecode feeds the frame decoder what a corrupting link can deliver:
// arbitrary bytes. It must never panic, and a frame it accepts must survive
// its own codec.
func FuzzDecode(f *testing.F) {
	for _, fr := range []Frame{
		{Dst: MakeAddr(2), Src: MakeAddr(1), Type: TypeIPv4, Payload: []byte("hello ethernet")},
		{Dst: Broadcast, Src: MakeAddr(7), Type: TypeARP},
		{Dst: MakeMulticastAddr(1), Src: MakeAddr(3), Type: TypeIPv4, Payload: bytes.Repeat([]byte{0xa5}, MaxPayload)},
	} {
		raw, err := fr.AppendEncode(nil)
		if err != nil {
			f.Fatalf("encode seed: %v", err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := Decode(raw)
		if err != nil {
			return
		}
		enc, err := fr.AppendEncode(nil)
		if err != nil {
			t.Fatalf("a decoded frame does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if again.Dst != fr.Dst || again.Src != fr.Src || again.Type != fr.Type || !bytes.Equal(again.Payload, fr.Payload) {
			t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", again, fr)
		}
	})
}
