package sttcp

import (
	"reflect"
	"testing"

	"repro/internal/ip"
)

// fuzzPat is the deterministic content byte for absolute stream offset off;
// with it the model need only track offsets — content checks fall out of
// them.
func fuzzPat(off int64) byte { return byte(off*31 + 7) }

// FuzzHoldBuf drives the primary's held receive buffer — a replicated
// connection's receive buffer, read by the application and released by the
// backup's reports — through arbitrary delivery/read/report/slice sequences
// (heldOps) against an offset model, in units of 1 B to 1 KiB chosen by
// unitSel, and checks what the recovery protocol and the client depend on:
// a delivery takes exactly the lesser of the unread and the unreported space,
// reads and recovery slices serve exactly the stream's bytes (or
// tcp.ErrReleased once read and reported), the gauge counts the unreported
// bytes, and no amount of lag convicts the backup.
func FuzzHoldBuf(f *testing.F) {
	f.Add(uint8(0), []byte{0, 32, 0, 32, 2, 16, 3, 8, 0, 200, 1, 1, 2, 255})
	f.Add(uint8(100), []byte{0, 255, 0, 255, 0, 255, 2, 255, 3, 0})
	f.Add(uint8(10), []byte{0, 255, 1, 255, 0, 255, 1, 255, 0, 255, 1, 255, 0, 255, 1, 255, 0, 255, 1, 1, 3, 255, 2, 200, 0, 255})

	f.Fuzz(func(t *testing.T, unitSel uint8, ops []byte) {
		heldOps(newHeldConns(t, 1)[0], 1<<(unitSel%11), ops)
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
