package sttcp

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/ip"
	"repro/internal/tcp"
)

// fuzzPat is the deterministic content byte for absolute stream offset off;
// with it the model need only track the window [base, end) — content checks
// fall out of the offsets.
func fuzzPat(off int64) byte { return byte(off*31 + 7) }

// FuzzHoldBuf drives the primary's hold buffer — a tcp.Window written only
// through holdAppend and released as the node does, clamped to what is held —
// through arbitrary append/release/slice sequences against an offset-window
// model and checks the conservation invariants the recovery protocol depends
// on: held bytes always equal end-base and never exceed capacity, appends are
// gap-and-overflow checked without partial effects, and Slice serves exactly
// the bytes that were appended — or tcp.ErrReleased once they are gone.
func FuzzHoldBuf(f *testing.F) {
	f.Add(uint8(0), []byte{0, 32, 0, 32, 2, 16, 3, 8, 0, 200, 1, 1, 2, 255})
	f.Add(uint8(100), []byte{0, 255, 0, 255, 0, 255, 2, 255, 3, 0})
	f.Add(uint8(255), []byte{1, 10, 0, 1, 2, 0, 3, 255})

	f.Fuzz(func(t *testing.T, capSel uint8, ops []byte) {
		capacity := 16 + int(capSel)%241 // 16..256
		hb := tcp.NewWindow(capacity)
		base, end := int64(0), int64(0) // model: bytes [base, end) are held

		check := func(when string) {
			t.Helper()
			if hb.Len() != int(end-base) {
				t.Fatalf("%s: Len()=%d, model holds %d", when, hb.Len(), end-base)
			}
			if hb.End() != end {
				t.Fatalf("%s: End()=%d, model end %d", when, hb.End(), end)
			}
			if hb.Len() > capacity {
				t.Fatalf("%s: Len()=%d exceeds capacity %d", when, hb.Len(), capacity)
			}
			if hb.Free()+hb.Len() != capacity {
				t.Fatalf("%s: Free()+Len() = %d+%d != cap %d", when, hb.Free(), hb.Len(), capacity)
			}
		}
		check("fresh")

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%4, int64(ops[i+1])
			switch op {
			case 0: // in-order append of arg bytes
				p := make([]byte, arg)
				for j := range p {
					p[j] = fuzzPat(end + int64(j))
				}
				err := holdAppend(hb, end, p)
				if int64(capacity)-(end-base) >= arg {
					if err != nil {
						t.Fatalf("in-order append of %d rejected: %v", arg, err)
					}
					end += arg
				} else if !errors.Is(err, ErrHoldOverflow) {
					t.Fatalf("overflowing append of %d returned %v, want ErrHoldOverflow", arg, err)
				}
			case 1: // append with a gap: must be rejected without effect
				err := holdAppend(hb, end+1+arg, []byte{0xaa})
				if !errors.Is(err, ErrHoldGap) {
					t.Fatalf("gapped append returned %v, want ErrHoldGap", err)
				}
			case 2: // release up to base+arg (may exceed end: clamps)
				upTo := base + arg
				hb.Release(min(upTo, hb.End()))
				if upTo > end {
					base = end
				} else if upTo > base {
					base = upTo
				}
			case 3: // slice
				if arg%2 == 1 && base > 0 {
					if _, err := hb.Slice(base-1, 2); !errors.Is(err, tcp.ErrReleased) {
						t.Fatalf("slice before base returned %v, want tcp.ErrReleased", err)
					}
					break
				}
				from := base + arg/2%16
				to := from + arg
				got, err := hb.Slice(from, int(to-from))
				if from > end || from >= to {
					// Fully outside or empty: any nil-content
					// success is fine, but never an eviction
					// error (from >= base here).
					if err != nil {
						t.Fatalf("slice(%d,%d) with base %d end %d: %v", from, to, base, end, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("slice(%d,%d) failed: %v", from, to, err)
				}
				wantLen := to
				if wantLen > end {
					wantLen = end
				}
				want := make([]byte, 0, wantLen-from)
				for off := from; off < wantLen; off++ {
					want = append(want, fuzzPat(off))
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("slice(%d,%d) returned wrong bytes (%d vs %d expected)", from, to, len(got), len(want))
				}
			}
			check("after op")
		}
	})
}

// FuzzCtrlDecode feeds the control-channel decoders what a corrupting
// Ethernet link can: arbitrary bytes. Node.handleCtrl picks the decoder by
// ctrlKind, but a flipped type byte hands any payload to any decoder, so all
// three see every input: none may panic, and whatever one accepts must
// survive its own codec — decode(encode(m)) == m, encoding as its own kind.
func FuzzCtrlDecode(f *testing.F) {
	client := ip.MakeAddr(10, 0, 0, 1)
	f.Add((&connOpenMsg{RemoteAddr: client, RemotePort: 50123, LocalPort: 80, ISS: 0xdead0000, IRS: 0xbeef0000}).encode())
	f.Add((&recoveryRequestMsg{RemoteAddr: client, RemotePort: 50123, LocalPort: 80, From: 1000, To: 2460}).encode())
	f.Add((&recoveryDataMsg{RemoteAddr: client, RemotePort: 50123, LocalPort: 80, Off: 1000, Data: []byte("missed bytes")}).encode())

	f.Fuzz(func(t *testing.T, raw []byte) {
		ctrlKind(raw) // never panics; its verdict does not gate the decoders here
		ctrlRoundTrip(t, raw, ctrlConnOpen, decodeConnOpen, (*connOpenMsg).encode)
		ctrlRoundTrip(t, raw, ctrlRecoveryRequest, decodeRecoveryRequest, (*recoveryRequestMsg).encode)
		ctrlRoundTrip(t, raw, ctrlRecoveryData, decodeRecoveryData, (*recoveryDataMsg).encode)
	})
}

// ctrlRoundTrip decodes raw as one control message type and, if the decoder
// accepts it, checks the message re-encodes as kind and decodes back to
// itself.
func ctrlRoundTrip[M any](t *testing.T, raw []byte, kind ctrlType, decode func([]byte) (M, error), encode func(*M) []byte) {
	m, err := decode(raw)
	if err != nil {
		return
	}
	enc := encode(&m)
	if k, err := ctrlKind(enc); err != nil || k != kind {
		t.Fatalf("%T encodes as kind %d (%v), want %d", m, k, err, kind)
	}
	if again, err := decode(enc); err != nil || !reflect.DeepEqual(again, m) {
		t.Fatalf("%T round trip: got %+v, %v; want %+v", m, again, err, m)
	}
}
