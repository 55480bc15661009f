package tcp

import (
	"bytes"
	"testing"
	"time"
)

// TestSequenceWraparoundTransfer pins the server's ISN just below 2^32 so
// the sequence numbers wrap early in a megabyte transfer; the 64-bit
// stream-offset machinery must carry the stream across the wrap intact in
// both directions of processing (server send path, client receive path).
func TestSequenceWraparoundTransfer(t *testing.T) {
	for _, iss := range []uint32{0xFFFFF000, 0xFFFFFFFF, 0x7FFFFF00} {
		iss := iss
		h := newPair(t, 70, lan(), Options{})
		l, err := h.stackB.Listen(addrB, 80)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		l.ISNProvider = func(ConnID) (uint32, bool) { return iss, true }
		var server *Conn
		l.OnEstablished = func(c *Conn) { server = c }
		client, err := h.stackA.Dial(ip0(), addrB, 80)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		_ = h.sim.Run(time.Second)
		if server == nil {
			t.Fatalf("iss=%#x: not established", iss)
		}
		payload := make([]byte, 1<<20)
		for i := range payload {
			payload[i] = byte(i*13 + int(iss))
		}
		sk := attachSink(client)
		writeAll(server, payload)
		_ = h.sim.Run(time.Minute)
		if !bytes.Equal(sk.data, payload) {
			t.Fatalf("iss=%#x: stream corrupted across wrap: %d/%d bytes", iss, len(sk.data), len(payload))
		}
		// Clean close across the wrapped space too.
		_ = server.Close()
		_ = client.Close()
		_ = h.sim.Run(time.Minute)
		if server.State() != StateClosed || client.State() != StateClosed {
			t.Fatalf("iss=%#x: close failed: %v/%v", iss, server.State(), client.State())
		}
	}
}

// TestSuppressedReplicaAcrossWrap runs the ST-TCP backup pattern (suppress,
// ghost acks, unsuppress, retransmission-driven restart) with a wrapping
// ISN: the failover-critical arithmetic must be wrap-clean.
func TestSuppressedReplicaAcrossWrap(t *testing.T) {
	h := newPair(t, 71, lan(), Options{})
	l, err := h.stackB.Listen(addrB, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l.ISNProvider = func(ConnID) (uint32, bool) { return 0xFFFFFF00, true }
	var server *Conn
	l.NewConnSetup = func(c *Conn) { c.SetSuppressed(true) }
	l.OnEstablished = func(c *Conn) { server = c }
	client, err := h.stackA.Dial(ip0(), addrB, 80)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_ = h.sim.Run(3 * time.Second)
	// The handshake cannot complete while the SYN-ACK is suppressed;
	// the client keeps retransmitting its SYN. Unsuppress (takeover)
	// and the connection forms with the wrapped ISN.
	_ = client
	if server == nil {
		// Expected: create on first SYN only after unsuppression.
		// Unsuppress via the stack's conns table.
		for _, c := range h.stackB.conns {
			c.SetSuppressed(false)
		}
	} else {
		server.SetSuppressed(false)
	}
	_ = h.sim.Run(10 * time.Second)
	if server == nil {
		t.Fatal("connection never established after unsuppression")
	}
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	sk := attachSink(client)
	writeAll(server, payload)
	_ = h.sim.Run(time.Minute)
	if !bytes.Equal(sk.data, payload) {
		t.Fatalf("wrapped replica stream corrupted: %d/%d", len(sk.data), len(payload))
	}
}
