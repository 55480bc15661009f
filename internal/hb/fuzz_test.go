package hb

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds the heartbeat decoder what a corrupting serial line or
// Ethernet link can: arbitrary bytes. It must never panic, and whatever it
// accepts must survive its own codec — Decode(Encode(m)) == m.
func FuzzDecode(f *testing.F) {
	for _, conns := range []int{0, 1, 2000} {
		m := sampleMessageWith(conns)
		raw, err := m.Encode()
		if err != nil {
			f.Fatalf("encode %d conns: %v", conns, err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Decode(raw)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("a decoded message does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}
