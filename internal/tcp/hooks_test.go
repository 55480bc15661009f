package tcp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/metrics"
)

// TestSuppressionDiscardsOutput checks the ST-TCP backup behaviour: a
// suppressed connection progresses its sequence state but emits nothing.
func TestSuppressionDiscardsOutput(t *testing.T) {
	h := newPair(t, 20, lan(), Options{})
	client, server := connectPair(t, h, 80)
	emittedBefore := h.stackB.Emitted
	h.stackB.mSuppressed = metrics.New(nil).Counter("b/tcp", "tcp.segments_suppressed")

	server.SetSuppressed(true)
	if _, err := server.Write(bytes.Repeat([]byte("s"), 4000)); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = h.sim.Run(3 * time.Second)
	if h.stackB.Emitted != emittedBefore {
		t.Fatalf("suppressed connection emitted %d segments", h.stackB.Emitted-emittedBefore)
	}
	if n := h.stackB.mSuppressed.Value(); n == 0 || n != server.SuppressedSegments {
		t.Fatalf("suppressed segments not counted: tcp.segments_suppressed=%d, Conn.SuppressedSegments=%d", n, server.SuppressedSegments)
	}
	if server.LastAppByteWritten() != 4000 {
		t.Fatalf("appWritten = %d", server.LastAppByteWritten())
	}
	_ = client
}

// TestUnsuppressResumesViaRetransmission checks takeover semantics: after
// unsuppression nothing is sent immediately, but the retransmission timer
// delivers the stream (the paper's failover restart).
func TestUnsuppressResumesViaRetransmission(t *testing.T) {
	h := newPair(t, 21, lan(), Options{})
	client, server := connectPair(t, h, 80)
	sk := attachSink(client)
	server.SetSuppressed(true)
	payload := bytes.Repeat([]byte("z"), 10000)
	writeAll(server, payload)
	_ = h.sim.Run(time.Second)
	if len(sk.data) != 0 {
		t.Fatalf("client received %d bytes from a suppressed server", len(sk.data))
	}
	server.SetSuppressed(false)
	_ = h.sim.Run(2 * time.Minute) // wait out the backed-off RTO
	if !bytes.Equal(sk.data, payload) {
		t.Fatalf("stream did not resume after unsuppression: %d/%d bytes", len(sk.data), len(payload))
	}
}

// TestForceRetransmitImmediate checks the eager-takeover extension: the
// stream restarts without waiting for the RTO.
func TestForceRetransmitImmediate(t *testing.T) {
	h := newPair(t, 22, lan(), Options{})
	client, server := connectPair(t, h, 80)
	sk := attachSink(client)
	server.SetSuppressed(true)
	payload := bytes.Repeat([]byte("q"), 5000)
	writeAll(server, payload)
	_ = h.sim.Run(5 * time.Second)
	server.SetSuppressed(false)
	server.ForceRetransmit()
	_ = h.sim.Run(500 * time.Millisecond) // well under the backed-off RTO
	if len(sk.data) == 0 {
		t.Fatal("eager retransmit sent nothing within 500ms")
	}
	_ = h.sim.Run(time.Minute)
	if !bytes.Equal(sk.data, payload) {
		t.Fatalf("stream incomplete after eager takeover: %d/%d", len(sk.data), len(payload))
	}
}

// TestHeldReceiveWindow checks the ST-TCP primary's extra receive buffer: a
// held byte stays after the application reads it, until it is reported; the
// advertised window is the lesser of the unread and the unreported space; a
// report that reopens a closed window sends one window update; and once
// holding stops the buffer is plain TCP again.
func TestHeldReceiveWindow(t *testing.T) {
	const size, hold = 8192, 4096
	h := newPair(t, 23, lan(), Options{RecvBufferSize: size})
	client, server := connectPair(t, h, 80)
	unreported := metrics.New(nil).Gauge("b/sttcp", "sttcp.holdbuf_bytes")
	server.Hold(hold, unreported)
	wantWindow := func(step string) {
		t.Helper()
		lbr, reported := server.LastByteReceived(), server.rb.reported
		want := min(size-int(lbr-server.LastAppByteRead()), hold-int(lbr-reported))
		if got := server.rb.window(); got != want {
			t.Fatalf("%s: window %d, want %d", step, got, want)
		}
		if got := unreported.Value(); got != lbr-reported {
			t.Fatalf("%s: gauge reads %d unreported bytes, want %d", step, got, lbr-reported)
		}
	}
	payload := patternBytes(0, 20000)
	writeAll(client, payload)
	_ = h.sim.Run(time.Second)
	if got := server.LastByteReceived(); got != hold || client.sndWnd != 0 {
		t.Fatalf("received %d bytes, client sees window %d; want the hold's %d and a closed window", got, client.sndWnd, hold)
	}
	wantWindow("hold full")

	buf := make([]byte, 1000)
	if n, _ := server.Read(buf); n != len(buf) || !bytes.Equal(buf, payload[:n]) {
		t.Fatalf("read %d bytes", n)
	}
	wantWindow("after a read")
	held := server.Held()
	if got, err := held.Slice(0, 1000); err != nil || !bytes.Equal(got, payload[:1000]) {
		t.Fatalf("recovery slice of bytes already read = %d bytes, %v", len(got), err)
	}

	emitted := h.stackB.Emitted
	server.ReleaseHeld(3000)
	server.ReleaseHeld(3000) // reopens nothing
	if got := h.stackB.Emitted - emitted; got != 1 {
		t.Fatalf("releases sent %d segments, want the one window update", got)
	}
	wantWindow("after the release")
	if _, err := held.Slice(999, 1); !errors.Is(err, ErrReleased) {
		t.Fatalf("a byte read and reported is still held (%v)", err)
	}
	if got, _ := held.Slice(1000, 10); !bytes.Equal(got, payload[1000:1010]) {
		t.Fatalf("a reported byte not yet read is gone: %q", got)
	}

	server.StopHolding()
	if server.Held() != nil || unreported.Value() != 0 {
		t.Fatalf("after StopHolding: held %v, gauge %d", server.Held(), unreported.Value())
	}
	sk := attachSink(server)
	_ = h.sim.Run(time.Minute)
	if !bytes.Equal(sk.data, payload[1000:]) || server.rb.window() != size {
		t.Fatalf("plain TCP again: read %d of %d bytes, window %d of %d", len(sk.data), len(payload)-1000, server.rb.window(), size)
	}
}

// TestPeekDiscardMatchesRead: consuming the receive buffer in place is a
// Read without the copy. The same held transfer is consumed by Read on one
// pair and by Peek and Discard on a twin; after every step both read the
// same bytes, have the same read offset, release the same bytes (a byte
// discarded but not yet reported stays in the held window), advertise the
// same receive window and send the same window updates, and the peeks
// cross the end of the ring. The hold is roomy, so the unread bytes close
// the window and a discard reopens it.
func TestPeekDiscardMatchesRead(t *testing.T) {
	const size, hold = 8192, 2 * 8192
	payload := patternBytes(0, 20000)
	type pair struct {
		h      *pairHarness
		server *Conn
		got    []byte
	}
	start := func() *pair {
		h := newPair(t, 25, lan(), Options{RecvBufferSize: size})
		client, server := connectPair(t, h, 80)
		server.Hold(hold, metrics.New(nil).Gauge("b/sttcp", "sttcp.holdbuf_bytes"))
		writeAll(client, payload)
		return &pair{h: h, server: server}
	}
	read, inPlace := start(), start()
	buf := make([]byte, 1500)
	wrapped, updates := false, 0
	for step := 0; len(read.got) < len(payload); step++ {
		for _, p := range []*pair{read, inPlace} {
			_ = p.h.sim.Run(3 * time.Millisecond)
			if p == read {
				n, _ := p.server.Read(buf)
				p.got = append(p.got, buf[:n]...)
			} else {
				first, second, _ := p.server.Peek(len(buf))
				wrapped = wrapped || len(second) > 0
				p.got = append(append(p.got, first...), second...)
				sent := p.h.stackB.Emitted
				p.server.Discard(len(first) + len(second))
				updates += int(p.h.stackB.Emitted - sent)
			}
			p.server.ReleaseHeld(p.server.LastAppByteRead() - 700)
		}
		r, ip := read.server, inPlace.server
		if !bytes.Equal(read.got, inPlace.got) || !bytes.Equal(read.got, payload[:len(read.got)]) {
			t.Fatalf("step %d: Read has %d bytes, Peek/Discard %d, and they are not both the stream", step, len(read.got), len(inPlace.got))
		}
		if r.LastAppByteRead() != ip.LastAppByteRead() || r.rb.win.Base() != ip.rb.win.Base() ||
			r.rb.window() != ip.rb.window() || read.h.stackB.Emitted != inPlace.h.stackB.Emitted {
			t.Fatalf("step %d: read offset %d/%d, window base %d/%d, advertised %d/%d, segments sent %d/%d (Read/Peek)",
				step, r.LastAppByteRead(), ip.LastAppByteRead(), r.rb.win.Base(), ip.rb.win.Base(),
				r.rb.window(), ip.rb.window(), read.h.stackB.Emitted, inPlace.h.stackB.Emitted)
		}
		if reported := ip.rb.reported; reported < ip.LastAppByteRead() {
			kept, err := ip.Held().Slice(reported, int(ip.LastAppByteRead()-reported))
			if err != nil || !bytes.Equal(kept, payload[reported:ip.LastAppByteRead()]) {
				t.Fatalf("step %d: the %d bytes discarded but unreported are not held (%v)", step, ip.LastAppByteRead()-reported, err)
			}
		}
	}
	if !wrapped || updates == 0 {
		t.Fatalf("%d window updates, a peek across the end of the ring: %v; want both", updates, wrapped)
	}
}

// TestFINGateHoldsAndReleases checks MaxDelayFIN machinery: Close
// generates a FIN that is withheld until ReleaseFIN.
func TestFINGateHoldsAndReleases(t *testing.T) {
	h := newPair(t, 24, lan(), Options{})
	client, server := connectPair(t, h, 80)
	skC := attachSink(client)
	gated := false
	server.SetFINGate(func(rst bool) {
		if rst {
			t.Error("FIN reported as RST")
		}
		gated = true
	})
	if _, err := server.Write([]byte("last words")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := server.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !gated {
		t.Fatal("gate callback did not fire")
	}
	if !server.FINQueued() || !server.FINGated() {
		t.Fatal("FIN not queued+gated")
	}
	_ = h.sim.Run(5 * time.Second)
	if skC.eof {
		t.Fatal("client saw EOF while the FIN was gated")
	}
	if string(skC.data) != "last words" {
		t.Fatalf("data before FIN: %q (data must flow despite the gate)", skC.data)
	}
	server.ReleaseFIN()
	_ = h.sim.Run(time.Second)
	if !skC.eof {
		t.Fatal("client never saw EOF after ReleaseFIN")
	}
	if server.State() != StateFinWait2 {
		t.Fatalf("server state %v, want FIN_WAIT_2 (half-closed)", server.State())
	}
	_ = client.Close()
	_ = h.sim.Run(30 * time.Second) // covers TIME_WAIT
	if server.State() != StateClosed || client.State() != StateClosed {
		t.Fatalf("states %v/%v after full close", server.State(), client.State())
	}
}

// TestFINGateWithAbort checks a gated Abort is reported as a RST and
// released as one.
func TestFINGateWithAbort(t *testing.T) {
	h := newPair(t, 25, lan(), Options{})
	client, server := connectPair(t, h, 80)
	skC := attachSink(client)
	var gotRST bool
	server.SetFINGate(func(rst bool) { gotRST = rst })
	server.Abort()
	if !gotRST || !server.RSTQueued() {
		t.Fatal("gated abort not reported as RST")
	}
	_ = h.sim.Run(2 * time.Second)
	if skC.closed {
		t.Fatal("client saw the RST while gated")
	}
	server.ReleaseFIN()
	_ = h.sim.Run(5 * time.Second)
	if !skC.closed || skC.err == nil {
		t.Fatalf("client did not get the released RST: closed=%v err=%v", skC.closed, skC.err)
	}
}

// TestInjectStreamBytes checks the missed-byte recovery primitive: bytes
// injected out of band fill the gap and merge with out-of-order data.
func TestInjectStreamBytes(t *testing.T) {
	h := newPair(t, 26, lan(), Options{})
	_, server := connectPair(t, h, 80)
	sk := attachSink(server)
	// Simulate a hole: the peer's bytes [0,100) were lost, [100,200)
	// arrived out of order via a crafted segment.
	ooo := make([]byte, 100)
	for i := range ooo {
		ooo[i] = byte(100 + i)
	}
	server.rb.accept(100, ooo)
	if n := server.InjectStreamBytes(0, patternBytes(0, 100)); n != 200 {
		t.Fatalf("inject accepted %d in-order bytes, want 200 (gap + drained ooo)", n)
	}
	_ = h.sim.Run(time.Second)
	if len(sk.data) != 200 {
		t.Fatalf("application read %d bytes, want 200", len(sk.data))
	}
}

func patternBytes(start int, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(start + i)
	}
	return out
}

// TestISNProviderPinsSequenceNumbers checks the backup-side hook: a
// listener with an ISNProvider creates connections with exactly the
// provided ISN.
func TestISNProviderPinsSequenceNumbers(t *testing.T) {
	h := newPair(t, 27, lan(), Options{})
	l, err := h.stackB.Listen(addrB, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	const pinned = 0xcafebabe
	l.ISNProvider = func(id ConnID) (uint32, bool) { return pinned, true }
	var accepted *Conn
	l.OnEstablished = func(c *Conn) { accepted = c }
	if _, err := h.stackA.Dial(ip.Addr{}, addrB, 80); err != nil {
		t.Fatalf("dial: %v", err)
	}
	_ = h.sim.Run(time.Second)
	if accepted == nil {
		t.Fatal("not accepted")
	}
	if accepted.ISS() != pinned {
		t.Fatalf("ISS = %#x, want %#x", accepted.ISS(), pinned)
	}
}

// TestSegmentFilterHoldsSegments checks the backup's park-and-replay flow,
// first on the SYN and then on segments that carry data. A parked segment
// outlives the frame it was decoded from, which the link reissues to the next
// frame, so the filter clones the payload: without the Clone below the first
// parked segment replays the second one's bytes.
func TestSegmentFilterHoldsSegments(t *testing.T) {
	h := newPair(t, 28, lan(), Options{})
	l, err := h.stackB.Listen(addrB, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var accepted *Conn
	l.OnEstablished = func(c *Conn) { accepted = c }

	type parked struct {
		pkt ip.Packet
		seg Segment
	}
	var held []parked
	holding := true
	h.stackB.SegmentFilter = func(pkt ip.Packet, seg *Segment) bool {
		if !holding {
			return true
		}
		p := parked{pkt, *seg}
		p.pkt.Payload, p.seg.Payload = nil, bytes.Clone(seg.Payload)
		held = append(held, p)
		return false
	}
	replay := func() {
		holding = false
		for i := range held {
			h.stackB.HandleSegment(held[i].pkt, &held[i].seg)
		}
		held = nil
	}
	client, err := h.stackA.Dial(ip.Addr{}, addrB, 80)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_ = h.sim.Run(3 * time.Second)
	if accepted != nil {
		t.Fatal("connection established despite the filter")
	}
	if len(held) == 0 {
		t.Fatal("nothing held")
	}
	replay()
	_ = h.sim.Run(5 * time.Second)
	if accepted == nil {
		t.Fatal("replay did not establish the connection")
	}

	sk := attachSink(accepted)
	holding = true
	first, second := []byte("first"), []byte("second, and longer")
	for _, msg := range [][]byte{first, second} {
		if n, err := client.Write(msg); n != len(msg) || err != nil {
			t.Fatalf("write %q = %d, %v", msg, n, err)
		}
		_ = h.sim.Run(10 * time.Millisecond)
	}
	if len(held) < 2 {
		t.Fatalf("held %d data segments, want the two writes parked separately", len(held))
	}
	if got := held[0].seg.Payload; !bytes.Equal(got, first) {
		t.Fatalf("first parked payload reads %q once its frame carried the second, want %q", got, first)
	}
	replay()
	_ = h.sim.Run(time.Second)
	if want := append(first, second...); !bytes.Equal(sk.data, want) {
		t.Fatalf("replayed stream = %q, want %q", sk.data, want)
	}
}

// TestForceEstablish checks the replica-from-heartbeat path.
func TestForceEstablish(t *testing.T) {
	h := newPair(t, 29, lan(), Options{})
	id := ConnID{LocalAddr: addrB, LocalPort: 80, RemoteAddr: addrA, RemotePort: 50000}
	c, err := h.stackB.CreateReplicaConn(id, 0x1000, func(c *Conn) { c.SetSuppressed(true) })
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	c.ForceEstablish(0x2000)
	if c.State() != StateEstablished {
		t.Fatalf("state %v", c.State())
	}
	if got := c.InjectStreamBytes(0, []byte("recovered")); got != 9 {
		t.Fatalf("inject = %d", got)
	}
	if c.LastByteReceived() != 9 {
		t.Fatalf("LBR = %d", c.LastByteReceived())
	}
	if _, err := h.stackB.CreateReplicaConn(id, 0x1000, nil); err == nil {
		t.Fatal("duplicate replica creation allowed")
	}
}

// TestIntrospectionOffsets checks the four heartbeat fields against a
// known exchange.
func TestIntrospectionOffsets(t *testing.T) {
	h := newPair(t, 30, lan(), Options{})
	client, server := connectPair(t, h, 80)
	attachSink(server)
	msg := bytes.Repeat([]byte("m"), 1234)
	writeAll(client, msg)
	_ = h.sim.Run(time.Second)
	if got := server.LastByteReceived(); got != 1234 {
		t.Fatalf("server LBR = %d", got)
	}
	if got := server.LastAppByteRead(); got != 1234 {
		t.Fatalf("server appRead = %d", got)
	}
	if got := client.LastAppByteWritten(); got != 1234 {
		t.Fatalf("client appWritten = %d", got)
	}
	if got := client.LastAckReceived(); got != 1234 {
		t.Fatalf("client LAR = %d", got)
	}
}

// TestGhostAckApplied checks the backup-specific case: a client ack for
// bytes the (slightly lagging) replica has not produced yet is remembered
// and applied once the replica catches up.
func TestGhostAckApplied(t *testing.T) {
	h := newPair(t, 31, lan(), Options{})
	client, server := connectPair(t, h, 80)
	_ = client
	server.SetSuppressed(true)
	// Craft an ack for 100 bytes the server never wrote.
	ackSeg := Segment{
		SrcPort: server.ID().RemotePort,
		DstPort: server.ID().LocalPort,
		Seq:     server.recvWireSeq(server.rb.next),
		Ack:     server.sendWireSeq(100),
		Flags:   FlagACK,
		Window:  65535,
	}
	server.handleSegment(&ackSeg)
	if server.LastAckReceived() != 0 {
		t.Fatalf("ghost ack applied prematurely: %d", server.LastAckReceived())
	}
	// Now the deterministic replica produces those bytes.
	if _, err := server.Write(bytes.Repeat([]byte("g"), 100)); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = h.sim.Run(time.Second)
	if server.LastAckReceived() != 100 {
		t.Fatalf("ghost ack not applied after catch-up: %d", server.LastAckReceived())
	}
}
