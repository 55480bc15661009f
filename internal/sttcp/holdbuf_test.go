package sttcp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tcp"
)

func TestHoldBufferAppendReleaseSlice(t *testing.T) {
	h := tcp.NewWindow(16)
	if err := holdAppend(h, 0, []byte("abcdefgh")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if h.Len() != 8 || h.End() != 8 {
		t.Fatalf("held=%d end=%d", h.Len(), h.End())
	}
	got, err := h.Slice(2, 4)
	if err != nil || string(got) != "cdef" {
		t.Fatalf("slice = %q, %v", got, err)
	}
	h.Release(4)
	if h.Len() != 4 {
		t.Fatalf("held after release = %d", h.Len())
	}
	if _, err := h.Slice(2, 4); !errors.Is(err, tcp.ErrReleased) {
		t.Fatalf("slice below base err = %v", err)
	}
	got, err = h.Slice(4, 96)
	if err != nil || string(got) != "efgh" {
		t.Fatalf("clipped slice = %q, %v", got, err)
	}
}

func TestHoldBufferGapRejected(t *testing.T) {
	h := tcp.NewWindow(16)
	_ = holdAppend(h, 0, []byte("ab"))
	if err := holdAppend(h, 5, []byte("xy")); !errors.Is(err, ErrHoldGap) {
		t.Fatalf("gap append err = %v", err)
	}
}

// TestHoldBufferOverflow checks the Table 1 row 5 trigger: the buffer
// refuses bytes beyond its capacity (backup hopelessly behind).
func TestHoldBufferOverflow(t *testing.T) {
	h := tcp.NewWindow(8)
	if err := holdAppend(h, 0, []byte("12345678")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := holdAppend(h, 8, []byte("9")); !errors.Is(err, ErrHoldOverflow) {
		t.Fatalf("overflow err = %v", err)
	}
	h.Release(4)
	if err := holdAppend(h, 8, []byte("9abc")); err != nil {
		t.Fatalf("append after release: %v", err)
	}
}

// TestHoldBufferProperty: the buffer always returns exactly the bytes of
// the original stream for any in-window slice, under random
// append/release interleavings.
func TestHoldBufferProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := make([]byte, 4096)
		rng.Read(stream)
		h := tcp.NewWindow(1024)
		written := int64(0)
		for written < int64(len(stream)) {
			// Release a random confirmed prefix to make room.
			if h.Free() == 0 || rng.Intn(2) == 0 {
				h.Release(h.Base() + int64(rng.Intn(h.Len()+1)))
			}
			n := rng.Intn(200) + 1
			if written+int64(n) > int64(len(stream)) {
				n = int(int64(len(stream)) - written)
			}
			if n > h.Free() {
				n = h.Free()
			}
			if n == 0 {
				continue
			}
			if err := holdAppend(h, written, stream[written:written+int64(n)]); err != nil {
				return false
			}
			written += int64(n)
			// Verify a random slice of what is held.
			if h.Len() > 0 {
				from := h.Base() + int64(rng.Intn(h.Len()))
				to := from + int64(rng.Intn(h.Len()))
				got, err := h.Slice(from, int(to-from))
				if err != nil {
					return false
				}
				if !bytes.Equal(got, stream[from:from+int64(len(got))]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCtrlMessageRoundtrips(t *testing.T) {
	co := connOpenMsg{
		RemoteAddr: [4]byte{10, 0, 0, 1},
		RemotePort: 50000,
		LocalPort:  80,
		ISS:        0xaabbccdd,
		IRS:        0x11223344,
	}
	if k, err := ctrlKind(co.encode()); err != nil || k != ctrlConnOpen {
		t.Fatalf("kind = %v, %v", k, err)
	}
	gotCO, err := decodeConnOpen(co.encode())
	if err != nil || gotCO != co {
		t.Fatalf("connOpen roundtrip: %+v, %v", gotCO, err)
	}

	rq := recoveryRequestMsg{
		RemoteAddr: [4]byte{10, 0, 0, 1},
		RemotePort: 50000,
		LocalPort:  80,
		From:       1 << 40,
		To:         (1 << 40) + 5000,
	}
	gotRQ, err := decodeRecoveryRequest(rq.encode())
	if err != nil || gotRQ != rq {
		t.Fatalf("recoveryRequest roundtrip: %+v, %v", gotRQ, err)
	}

	rd := recoveryDataMsg{
		RemoteAddr: [4]byte{10, 0, 0, 1},
		RemotePort: 50000,
		LocalPort:  80,
		Off:        12345,
		Data:       []byte("recovered bytes"),
	}
	gotRD, err := decodeRecoveryData(rd.encode())
	if err != nil || gotRD.Off != rd.Off || !bytes.Equal(gotRD.Data, rd.Data) {
		t.Fatalf("recoveryData roundtrip: %+v, %v", gotRD, err)
	}
}

func TestCtrlRejectsGarbage(t *testing.T) {
	if _, err := ctrlKind(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := ctrlKind([]byte{0x00, 0x01}); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ctrlKind([]byte{ctrlMagic, 0x77}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := decodeConnOpen([]byte{ctrlMagic, 1, 2}); err == nil {
		t.Fatal("short connOpen accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.HBPeriod.Milliseconds() != 200 {
		t.Fatalf("HB period = %v", c.HBPeriod)
	}
	if c.AppMaxLagBytes != 64<<10 || c.MaxDelayFIN.Seconds() != 60 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.ServicePort == 0 || c.HoldBufferSize == 0 {
		t.Fatalf("zero defaults remain: %+v", c)
	}
}
