package icmp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEchoRoundtrip(t *testing.T) {
	e := Echo{Type: TypeEchoRequest, ID: 7, Seq: 3, Payload: []byte("ping")}
	got, err := Decode(e.AppendEncode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Type != e.Type || got.ID != e.ID || got.Seq != e.Seq || !bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, e)
	}
}

func TestEchoRoundtripProperty(t *testing.T) {
	fn := func(req bool, id, seq uint16, payload []byte) bool {
		e := Echo{Type: TypeEchoReply, ID: id, Seq: seq, Payload: payload}
		if req {
			e.Type = TypeEchoRequest
		}
		got, err := Decode(e.AppendEncode(nil))
		return err == nil && got.Type == e.Type && got.ID == e.ID &&
			got.Seq == e.Seq && bytes.Equal(got.Payload, e.Payload)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	e := Echo{Type: TypeEchoRequest, ID: 1, Seq: 1, Payload: []byte("xyz")}
	raw := e.AppendEncode(nil)
	raw[HeaderLen] ^= 0x55
	if _, err := Decode(raw); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestTooShort(t *testing.T) {
	if _, err := Decode(make([]byte, HeaderLen-1)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

// FuzzDecode feeds the echo decoder what a corrupting link can deliver:
// arbitrary bytes. It must never panic, and a message it accepts must
// survive its own codec.
func FuzzDecode(f *testing.F) {
	for _, e := range []Echo{
		{Type: TypeEchoRequest, ID: 7, Seq: 3, Payload: []byte("ping")},
		{Type: TypeEchoReply, ID: 7, Seq: 3, Payload: []byte("odd")},
	} {
		f.Add(e.AppendEncode(nil))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := Decode(raw)
		if err != nil {
			return
		}
		again, err := Decode(e.AppendEncode(nil))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if again.Type != e.Type || again.ID != e.ID || again.Seq != e.Seq || !bytes.Equal(again.Payload, e.Payload) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, e)
		}
	})
}
