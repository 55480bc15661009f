package sttcp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tcp"
)

// heldConn is one replicated connection of an unstarted primary beside the
// byte model of its held receive buffer: the client stream is fuzzPat,
// delivered up to end, read by the application up to read, and reported by
// the backup up to reported.
type heldConn struct {
	t                   testing.TB
	node                *Node
	rc                  *repConn
	end, read, reported int64
}

// newHeldConns builds a primary with n replicated connections and a model
// of each.
func newHeldConns(t testing.TB, n int) []*heldConn {
	t.Helper()
	node := newPrimaryWithConns(t, clientIDs(n))
	hs := make([]*heldConn, 0, n)
	for _, rc := range node.ordered {
		hs = append(hs, &heldConn{t: t, node: node, rc: rc})
	}
	return hs
}

// window is what the model advertises: the lesser of the unread and the
// unreported space. The host's stack is built with zero tcp.Options.
func (h *heldConn) window() int64 {
	return min(tcp.DefaultRecvBufferSize-(h.end-h.read), holdBufferSize-(h.end-h.reported))
}

// deliver offers n client bytes at the in-order edge; exactly the window's
// worth must be taken.
func (h *heldConn) deliver(n int64) {
	h.t.Helper()
	p := make([]byte, n)
	for i := range p {
		p[i] = fuzzPat(h.end + int64(i))
	}
	want := min(n, h.window())
	if got := h.rc.conn.InjectStreamBytes(h.end, p); int64(got) != want {
		h.t.Fatalf("delivering %d bytes at %d took %d, want the window's %d", n, h.end, got, want)
	}
	h.end += want
	h.check()
}

// readN has the application read up to n bytes.
func (h *heldConn) readN(n int64) {
	h.t.Helper()
	buf := make([]byte, n)
	got, _ := h.rc.conn.Read(buf)
	if want := min(n, h.end-h.read); int64(got) != want {
		h.t.Fatalf("read %d bytes at %d, want %d", got, h.read, want)
	}
	for i, b := range buf[:got] {
		if b != fuzzPat(h.read+int64(i)) {
			h.t.Fatalf("read byte %d wrong", h.read+int64(i))
		}
	}
	h.read += int64(got)
	h.check()
}

// report applies the backup's heartbeat report that it received up to lbr,
// as the node consumes one.
func (h *heldConn) report(lbr int64) {
	h.t.Helper()
	h.rc.peerLBR = lbr
	h.node.primaryConsumeConnState(h.rc)
	h.reported = max(h.reported, min(lbr, h.end))
	h.check()
}

// slice serves a recovery slice of n bytes from from, as serveRecovery does,
// and checks it against the stream.
func (h *heldConn) slice(from int64, n int) {
	h.t.Helper()
	got, err := h.rc.conn.Held().Slice(from, n)
	if from < min(h.read, h.reported) {
		if !errors.Is(err, tcp.ErrReleased) {
			h.t.Fatalf("slice at %d below the held base returned %v, want tcp.ErrReleased", from, err)
		}
		return
	}
	if want := max(0, min(from+int64(n), h.end)-from); err != nil || int64(len(got)) != want {
		h.t.Fatalf("slice(%d, %d) = %d bytes, %v; want %d", from, n, len(got), err, want)
	}
	for i, b := range got {
		if b != fuzzPat(from+int64(i)) {
			h.t.Fatalf("slice byte %d wrong", from+int64(i))
		}
	}
}

// check holds the connection to the model: the held bytes run from the
// oldest unread or unreported one to the last delivered, and the node never
// leaves the active state over them.
func (h *heldConn) check() {
	h.t.Helper()
	held := h.rc.conn.Held()
	if held.Base() != min(h.read, h.reported) || held.End() != h.end {
		h.t.Fatalf("held [%d, %d), model [%d, %d)", held.Base(), held.End(), min(h.read, h.reported), h.end)
	}
	if s := h.node.State(); s != StateActive {
		h.t.Fatalf("node went %v over its held bytes: %s", s, h.node.Verdict())
	}
}

// unreported sums the model's delivered but unreported bytes: what the
// node's sttcp.holdbuf_bytes gauge must read.
func unreported(hs []*heldConn) (sum int64) {
	for _, h := range hs {
		sum += h.end - h.reported
	}
	return sum
}

// heldOps applies ops, two bytes each (operation, amount in units), to h: a
// delivery, an application read, a backup report (up to 16 units behind
// what was reported before, or ahead of what was delivered) and a recovery
// slice (from a byte below the held base on), checking the gauge after each.
func heldOps(h *heldConn, unit int64, ops []byte) {
	h.t.Helper()
	for i := 0; i+1 < len(ops); i += 2 {
		arg := int64(ops[i+1])
		switch ops[i] % 4 {
		case 0:
			h.deliver(arg * unit)
		case 1:
			h.readN(arg * unit)
		case 2:
			h.report(h.reported + (arg-16)*unit)
		case 3:
			h.slice(min(h.read, h.reported)-1+arg*unit/2, int(arg*unit)+1)
		}
		if got, want := h.node.mHoldBytes.Value(), unreported([]*heldConn{h}); got != want {
			h.t.Fatalf("op %d: gauge reads %d, %d bytes are unreported", i/2, got, want)
		}
	}
}

// TestHoldBufferAppendReleaseSlice: bytes the application has read stay for
// recovery until the backup reports them.
func TestHoldBufferAppendReleaseSlice(t *testing.T) {
	h := newHeldConns(t, 1)[0]
	h.deliver(8)
	h.readN(4)
	h.slice(2, 4) // read, not reported
	h.report(4)
	h.slice(2, 4) // read and reported: released
	h.slice(4, 96)
	h.report(100) // past what was delivered: clamps
	h.slice(4, 4) // reported, not read
	h.readN(10)
	if held := h.rc.conn.Held(); held.Len() != 0 {
		t.Fatalf("%d bytes held after every byte was read and reported", held.Len())
	}
}

// TestHoldBufferGapRejected: bytes past a hole are not held — nor counted —
// until the hole fills.
func TestHoldBufferGapRejected(t *testing.T) {
	h := newHeldConns(t, 1)[0]
	h.deliver(2)
	if got := h.rc.conn.InjectStreamBytes(5, []byte{fuzzPat(5), fuzzPat(6)}); got != 0 {
		t.Fatalf("bytes past a hole were taken in order (%d)", got)
	}
	h.check()
	if got := h.node.mHoldBytes.Value(); got != 2 {
		t.Fatalf("gauge reads %d with 2 bytes delivered", got)
	}
	if got := h.rc.conn.InjectStreamBytes(2, []byte{fuzzPat(2), fuzzPat(3), fuzzPat(4)}); got != 5 {
		t.Fatalf("filling the hole took %d bytes in order, want 5 with the 2 behind it", got)
	}
	h.end = 7
	h.check()
	if got := h.node.mHoldBytes.Value(); got != 7 {
		t.Fatalf("gauge reads %d with 7 bytes delivered", got)
	}
}

// TestHoldBufferOverflow: a backup that reports late closes the client's
// window at holdBufferSize unreported bytes — the node stays active — and its
// report reopens it with a window update.
func TestHoldBufferOverflow(t *testing.T) {
	h := newHeldConns(t, 1)[0]
	for h.end < holdBufferSize {
		h.deliver(64 << 10)
		h.readN(64 << 10)
	}
	if h.window() != 0 {
		t.Fatalf("window %d with %d bytes unreported", h.window(), h.end-h.reported)
	}
	h.deliver(1)
	emitted := h.node.host.TCP().Emitted
	h.report(holdBufferSize / 2)
	if got := h.node.host.TCP().Emitted - emitted; got != 1 {
		t.Fatalf("the reopening report sent %d segments, want one window update", got)
	}
	h.deliver(64 << 10)
}

// TestHoldBufferProperty: under random interleavings of deliveries, reads,
// reports and recovery slices, sized to reach both the unread and the
// unreported bound, the held buffer follows the model byte for byte.
func TestHoldBufferProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 200)
		rng.Read(ops)
		heldOps(newHeldConns(t, 1)[0], 1<<10, ops)
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
	if c.ServicePort == 0 {
		t.Fatalf("zero defaults remain: %+v", c)
	}
}
