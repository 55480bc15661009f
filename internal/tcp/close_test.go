package tcp

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestHalfCloseServerKeepsStreaming: the client closes its write side
// (FIN) while the server continues sending; data must keep flowing to the
// client until the server closes too.
func TestHalfCloseServerKeepsStreaming(t *testing.T) {
	h := newPair(t, 40, lan(), Options{})
	client, server := connectPair(t, h, 80)
	skC := attachSink(client)
	if err := client.Close(); err != nil {
		t.Fatalf("half close: %v", err)
	}
	_ = h.sim.Run(time.Second)
	if server.State() != StateCloseWait {
		t.Fatalf("server state %v, want CLOSE_WAIT", server.State())
	}
	// Writing in CLOSE_WAIT is legal: the peer only closed its side.
	payload := make([]byte, 200<<10)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	writeAll(server, payload)
	_ = h.sim.Run(time.Minute)
	if !bytes.Equal(skC.data, payload) {
		t.Fatalf("half-closed client received %d/%d bytes", len(skC.data), len(payload))
	}
	if err := server.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	_ = h.sim.Run(time.Minute)
	if server.State() != StateClosed || client.State() != StateClosed {
		t.Fatalf("states %v/%v", server.State(), client.State())
	}
}

// TestWriteAfterCloseRejected: the local write side is gone after Close.
func TestWriteAfterCloseRejected(t *testing.T) {
	h := newPair(t, 41, lan(), Options{})
	client, _ := connectPair(t, h, 80)
	_ = client.Close()
	if _, err := client.Write([]byte("too late")); !errors.Is(err, ErrWriteClosed) {
		t.Fatalf("err = %v, want ErrWriteClosed", err)
	}
}

// TestReadDrainsAfterPeerClose: data received before the peer's FIN stays
// readable afterwards, then EOF.
func TestReadDrainsAfterPeerClose(t *testing.T) {
	h := newPair(t, 42, lan(), Options{})
	client, server := connectPair(t, h, 80)
	// Server receives data + FIN but the app reads only afterwards.
	msg := []byte("buffered before the FIN")
	if _, err := client.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = client.Close()
	_ = h.sim.Run(time.Second)
	buf := make([]byte, 100)
	n, err := server.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("read after peer FIN: %q, %v", buf[:n], err)
	}
	if _, err := server.Read(buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("second read err = %v, want EOF (ErrClosed)", err)
	}
}

// TestCloseWithEmptyBuffers: an idle connection closes in a handful of
// round trips — no timer-waiting beyond TIME_WAIT, which lasts 2 × msl
// (10 s).
func TestCloseWithEmptyBuffers(t *testing.T) {
	h := newPair(t, 43, lan(), Options{})
	client, server := connectPair(t, h, 80)
	_ = client.Close()
	_ = server.Close()
	// Simultaneous close: both ends wait out TIME_WAIT, and nothing else —
	// the close handshake needs no retransmission timers on a clean link.
	_ = h.sim.Run(2*msl - 100*time.Millisecond)
	if client.State() != StateTimeWait || server.State() != StateTimeWait {
		t.Fatalf("states %v/%v just before 2×MSL, want TIME_WAIT/TIME_WAIT", client.State(), server.State())
	}
	_ = h.sim.Run(300 * time.Millisecond)
	if client.State() != StateClosed || server.State() != StateClosed {
		t.Fatalf("states %v/%v after 2×MSL and a few round trips", client.State(), server.State())
	}
}

// TestWindowUpdateAfterDrain: after a zero-window stall, the reader's Read
// triggers a window-update ack without waiting for a persist probe.
func TestWindowUpdateAfterDrain(t *testing.T) {
	opts := Options{RecvBufferSize: 4096}
	h := newPair(t, 44, lan(), opts)
	client, server := connectPair(t, h, 80)
	payload := make([]byte, 8192)
	writeAll(client, payload)
	_ = h.sim.Run(500 * time.Millisecond)
	if server.rb.window() != 0 {
		t.Fatalf("window = %d, want 0 before drain", server.rb.window())
	}
	emitted := h.stackB.Emitted
	buf := make([]byte, 8192)
	n, _ := server.Read(buf)
	if n != 4096 {
		t.Fatalf("drained %d", n)
	}
	if h.stackB.Emitted == emitted {
		t.Fatal("no window update emitted on drain")
	}
	_ = h.sim.Run(time.Minute)
	n2, _ := server.Read(buf)
	if n+n2 != len(payload) {
		t.Fatalf("total read %d, want %d", n+n2, len(payload))
	}
}

// TestOOOBufferBounded: out-of-order data beyond the buffer limit is
// dropped, not hoarded.
func TestOOOBufferBounded(t *testing.T) {
	b := newRecvBuffer(1024)
	total := 0
	for i := 0; i < 100; i++ {
		off := int64(2048 + i*100)
		b.accept(off, make([]byte, 100))
		total = b.oooHeld
	}
	if total > 1024 {
		t.Fatalf("out-of-order buffer grew to %d with cap 1024", total)
	}
}

// TestListenerNewConnSetupRuns: the setup hook fires before any segment
// processing, so suppression installed there covers the SYN-ACK itself.
func TestListenerNewConnSetupRuns(t *testing.T) {
	h := newPair(t, 45, lan(), Options{})
	l, err := h.stackB.Listen(addrB, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l.NewConnSetup = func(c *Conn) { c.SetSuppressed(true) }
	emitted := h.stackB.Emitted
	c, err := h.stackA.Dial(ip0(), addrB, 80)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_ = h.sim.Run(3 * time.Second)
	if h.stackB.Emitted != emitted {
		t.Fatalf("suppressed listener emitted %d segments (SYN-ACK leaked)", h.stackB.Emitted-emitted)
	}
	if c.State() == StateEstablished {
		t.Fatal("client established against a fully suppressed server")
	}
}

// TestAbortAfterEstablishIsImmediate: no lingering state after Abort.
func TestAbortAfterEstablishIsImmediate(t *testing.T) {
	h := newPair(t, 46, lan(), Options{})
	client, server := connectPair(t, h, 80)
	client.Abort()
	if client.State() != StateClosed {
		t.Fatalf("client state %v after abort", client.State())
	}
	if _, ok := h.stackA.Lookup(client.ID()); ok {
		t.Fatal("aborted connection still in the table")
	}
	_ = h.sim.Run(time.Second)
	if server.State() != StateClosed {
		t.Fatalf("server state %v after receiving RST", server.State())
	}
}

// TestTracedLifecycle: the tracer captures establishment and closure.
func TestTracedLifecycle(t *testing.T) {
	h := newPair(t, 47, lan(), Options{})
	client, server := connectPair(t, h, 80)
	_ = client.Close()
	_ = server.Close()
	_ = h.sim.Run(2*msl + time.Second)
	got := 0
	for _, e := range h.tracer.Events() {
		if strings.Contains(e.Component, "tcp") {
			got++
		}
	}
	if got < 3 {
		t.Fatalf("only %d tcp trace events", got)
	}
}

func ip0() (z [4]byte) { return }
