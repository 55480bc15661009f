package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
)

func lan() netem.LinkConfig { return netem.DefaultLANConfig() }

func TestHandshake(t *testing.T) {
	h := newPair(t, 1, lan(), Options{})
	client, server := connectPair(t, h, 80)
	if client.ISS() == server.ISS() {
		t.Fatal("both sides chose the same ISN (suspicious)")
	}
	if client.IRS() != server.ISS() || server.IRS() != client.ISS() {
		t.Fatal("IRS/ISS mismatch between the two ends")
	}
	if client.mss != DefaultMSS {
		t.Fatalf("negotiated MSS %d, want %d", client.mss, DefaultMSS)
	}
}

func TestSmallTransfer(t *testing.T) {
	h := newPair(t, 2, lan(), Options{})
	client, server := connectPair(t, h, 80)
	sk := attachSink(server)
	msg := []byte("hello st-tcp world")
	if _, err := client.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = h.sim.Run(time.Second)
	if !bytes.Equal(sk.data, msg) {
		t.Fatalf("server got %q, want %q", sk.data, msg)
	}
}

func TestLargeTransferBothDirections(t *testing.T) {
	h := newPair(t, 3, lan(), Options{})
	client, server := connectPair(t, h, 80)
	up := make([]byte, 2<<20)
	down := make([]byte, 3<<20)
	for i := range up {
		up[i] = byte(i * 7)
	}
	for i := range down {
		down[i] = byte(i * 13)
	}
	skServer := attachSink(server)
	skClient := attachSink(client)
	writeAll(client, up)
	writeAll(server, down)
	_ = h.sim.Run(time.Minute)
	if !bytes.Equal(skServer.data, up) {
		t.Fatalf("upstream corrupted: got %d bytes want %d", len(skServer.data), len(up))
	}
	if !bytes.Equal(skClient.data, down) {
		t.Fatalf("downstream corrupted: got %d bytes want %d", len(skClient.data), len(down))
	}
}

// TestLossyLinkTransfer checks retransmission repairs a 5% lossy link.
func TestLossyLinkTransfer(t *testing.T) {
	cfg := lan()
	cfg.LossRate = 0.05
	h := newPair(t, 4, cfg, Options{})
	client, server := connectPair(t, h, 80)
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	sk := attachSink(server)
	writeAll(client, payload)
	_ = h.sim.Run(5 * time.Minute)
	if !bytes.Equal(sk.data, payload) {
		t.Fatalf("lossy transfer corrupted: got %d bytes want %d (retransmits=%d)",
			len(sk.data), len(payload), client.Retransmits)
	}
	if client.Retransmits == 0 {
		t.Fatal("no retransmissions on a 5% lossy link")
	}
}

// TestTransferProperty property-checks stream integrity across random
// payload sizes and loss rates.
func TestTransferProperty(t *testing.T) {
	fn := func(seed int64, sizeKB uint8, lossPct uint8) bool {
		size := (int(sizeKB)%64 + 1) << 10
		cfg := lan()
		cfg.LossRate = float64(lossPct%10) / 100
		h := newPair(t, seed, cfg, Options{})
		client, server := connectPair(t, h, 80)
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(int(seed) + i)
		}
		sk := attachSink(server)
		writeAll(client, payload)
		_ = h.sim.Run(5 * time.Minute)
		return bytes.Equal(sk.data, payload)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroWindowAndPersist checks flow control: a non-reading receiver
// closes the window, the sender probes, and reading resumes the stream.
func TestZeroWindowAndPersist(t *testing.T) {
	opts := Options{RecvBufferSize: 8 << 10}
	h := newPair(t, 5, lan(), opts)
	client, server := connectPair(t, h, 80)
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	writeAll(client, payload)
	_ = h.sim.Run(3 * time.Second)
	// The server never read: at most the receive buffer arrived.
	if got := server.Buffered(); got > opts.RecvBufferSize {
		t.Fatalf("receiver buffered %d with an 8KiB buffer", got)
	}
	if got := server.LastByteReceived(); got > int64(opts.RecvBufferSize) {
		t.Fatalf("receiver accepted %d bytes into an 8KiB window", got)
	}
	// Now drain; the transfer must complete (persist probes reopen it).
	var received []byte
	server.OnReadable = func() {
		buf := make([]byte, 4096)
		for {
			n, _ := server.Read(buf)
			if n == 0 {
				return
			}
			received = append(received, buf[:n]...)
		}
	}
	server.OnReadable()
	_ = h.sim.Run(2 * time.Minute)
	if len(received) != len(payload) {
		t.Fatalf("drained %d bytes, want %d", len(received), len(payload))
	}
	if !bytes.Equal(received, payload) {
		t.Fatal("payload corrupted across zero-window stall")
	}
}

func TestCleanCloseBothWays(t *testing.T) {
	h := newPair(t, 6, lan(), Options{})
	client, server := connectPair(t, h, 80)
	skC, skS := attachSink(client), attachSink(server)
	if err := client.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	_ = h.sim.Run(time.Second)
	if server.State() != StateCloseWait {
		t.Fatalf("server state %v, want CLOSE_WAIT", server.State())
	}
	if !skS.eof {
		t.Fatal("server did not observe EOF")
	}
	if err := server.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	_ = h.sim.Run(30 * time.Second) // covers TIME_WAIT
	if !skS.closed || skS.err != nil {
		t.Fatalf("server close notification: closed=%v err=%v", skS.closed, skS.err)
	}
	if !skC.closed || skC.err != nil {
		t.Fatalf("client close notification: closed=%v err=%v", skC.closed, skC.err)
	}
	if client.State() != StateClosed || server.State() != StateClosed {
		t.Fatalf("states %v/%v, want CLOSED/CLOSED", client.State(), server.State())
	}
}

func TestFINWithPendingData(t *testing.T) {
	h := newPair(t, 7, lan(), Options{})
	client, server := connectPair(t, h, 80)
	sk := attachSink(server)
	msg := make([]byte, 100<<10)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	writeAll(client, msg)
	if err := client.Close(); err != nil { // close with data still queued
		t.Fatalf("close: %v", err)
	}
	_ = h.sim.Run(time.Minute)
	if !bytes.Equal(sk.data, msg) {
		t.Fatalf("data lost at close: got %d want %d", len(sk.data), len(msg))
	}
	if !sk.eof {
		t.Fatal("FIN did not arrive after data")
	}
}

func TestSimultaneousClose(t *testing.T) {
	h := newPair(t, 8, lan(), Options{})
	client, server := connectPair(t, h, 80)
	_ = client.Close()
	_ = server.Close()
	_ = h.sim.Run(time.Minute)
	if client.State() != StateClosed || server.State() != StateClosed {
		t.Fatalf("states %v/%v after simultaneous close", client.State(), server.State())
	}
}

func TestAbortSendsRST(t *testing.T) {
	h := newPair(t, 9, lan(), Options{})
	client, server := connectPair(t, h, 80)
	sk := attachSink(server)
	client.Abort()
	_ = h.sim.Run(time.Second)
	if !sk.closed || !errors.Is(sk.err, ErrReset) {
		t.Fatalf("server close err = %v, want ErrReset", sk.err)
	}
	if client.State() != StateClosed {
		t.Fatalf("client state %v", client.State())
	}
}

func TestOutOfTheBlueGetsRST(t *testing.T) {
	h := newPair(t, 10, lan(), Options{})
	// Dial a port nobody listens on.
	c, err := h.stackA.Dial(ip.Addr{}, addrB, 9999)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var closeErr error
	closed := false
	c.OnClose = func(err error) { closed = true; closeErr = err }
	_ = h.sim.Run(5 * time.Second)
	if !closed || !errors.Is(closeErr, ErrReset) {
		t.Fatalf("refused connection: closed=%v err=%v, want RST", closed, closeErr)
	}
}

// TestRetransmissionTimeoutGivesUp: an unanswered segment is retransmitted
// maxRetransmits (15) times, backing off from the 1 s initial RTO (the
// handshake gave no sample) to the 60 s cap, and the timeout after the 15th,
// 663 s after the write, gives up.
func TestRetransmissionTimeoutGivesUp(t *testing.T) {
	h := newPair(t, 11, lan(), Options{})
	client, server := connectPair(t, h, 80)
	_ = server
	sk := attachSink(client)
	h.cut(true)
	if _, err := client.Write([]byte("into the void")); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = h.sim.Run(660 * time.Second)
	if sk.closed || client.Retransmits != maxRetransmits {
		t.Fatalf("after 660 s: %d retransmits, closed=%v; want all %d sent and the connection still waiting", client.Retransmits, sk.closed, maxRetransmits)
	}
	_ = h.sim.Run(6 * time.Second)
	if !sk.closed || !errors.Is(sk.err, ErrTimeout) {
		t.Fatalf("close err = %v, want ErrTimeout", sk.err)
	}
	if client.Retransmits != maxRetransmits {
		t.Fatalf("gave up after %d retransmits, want %d", client.Retransmits, maxRetransmits)
	}
}

// TestRTOBackoffGrows checks exponential backoff: retransmission intervals
// must grow while the peer is unreachable.
func TestRTOBackoffGrows(t *testing.T) {
	h := newPair(t, 12, lan(), Options{})
	client, server := connectPair(t, h, 80)
	_ = server
	_, _ = client.Write([]byte("x"))
	_ = h.sim.Run(100 * time.Millisecond)
	h.cut(true)
	_, _ = client.Write([]byte("y"))
	before := client.RTO()
	_ = h.sim.Run(10 * time.Second)
	after := client.RTO()
	if after < 4*before {
		t.Fatalf("RTO grew only from %v to %v in 10s of silence", before, after)
	}
	if client.Retransmits < 3 {
		t.Fatalf("only %d retransmits in 10s", client.Retransmits)
	}
}

func TestDuplicateSYNHandled(t *testing.T) {
	h := newPair(t, 13, lan(), Options{})
	client, server := connectPair(t, h, 80)
	// Re-deliver a synthetic duplicate SYN for the same connection.
	seg := Segment{
		SrcPort: client.ID().LocalPort,
		DstPort: 80,
		Seq:     client.ISS(),
		Flags:   FlagSYN,
		Window:  65535,
		MSS:     DefaultMSS,
	}
	pkt := ip.Packet{Src: addrA, Dst: addrB, Proto: ip.ProtoTCP}
	h.stackB.HandleSegment(pkt, &seg)
	_ = h.sim.Run(time.Second)
	if server.State() != StateEstablished {
		t.Fatalf("duplicate SYN broke the connection: %v", server.State())
	}
	sk := attachSink(server)
	_, _ = client.Write([]byte("still works"))
	_ = h.sim.Run(time.Second)
	if string(sk.data) != "still works" {
		t.Fatalf("data after duplicate SYN: %q", sk.data)
	}
}

// TestMSSNegotiationTakesMin has the wire offer 536 bytes: every SYN and
// SYN-ACK arrives with that MSS option, as from a peer with a smaller
// segment size, and both ends settle on it.
func TestMSSNegotiationTakesMin(t *testing.T) {
	h := newPair(t, 14, lan(), Options{})
	offer536 := func(_ ip.Packet, seg *Segment) bool {
		if seg.Flags.Has(FlagSYN) {
			seg.MSS = 536
		}
		return true
	}
	h.stackA.SegmentFilter = offer536
	h.stackB.SegmentFilter = offer536
	client, server := connectPair(t, h, 80)
	if client.mss != 536 || server.mss != 536 {
		t.Fatalf("negotiated MSS %d/%d, want 536", client.mss, server.mss)
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	h := newPair(t, 15, lan(), Options{})
	l, err := h.stackB.Listen(addrB, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var accepted []*Conn
	l.OnEstablished = func(c *Conn) { accepted = append(accepted, c) }
	seen := map[uint16]bool{}
	for i := 0; i < 10; i++ {
		c, err := h.stackA.Dial(ip.Addr{}, addrB, 80)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if seen[c.ID().LocalPort] {
			t.Fatalf("ephemeral port %d reused", c.ID().LocalPort)
		}
		seen[c.ID().LocalPort] = true
	}
	_ = h.sim.Run(time.Second)
	if len(accepted) != 10 {
		t.Fatalf("accepted %d connections, want 10", len(accepted))
	}
}

func TestListenerRejectsDuplicateBind(t *testing.T) {
	h := newPair(t, 16, lan(), Options{})
	if _, err := h.stackB.Listen(addrB, 80); err != nil {
		t.Fatalf("listen: %v", err)
	}
	if _, err := h.stackB.Listen(addrB, 80); !errors.Is(err, ErrListenerExists) {
		t.Fatalf("err = %v, want ErrListenerExists", err)
	}
}

// TestConnIDReverse: the two endpoints of one connection name it with the
// local and remote halves swapped.
func TestConnIDReverse(t *testing.T) {
	h := newPair(t, 48, lan(), Options{})
	client, server := connectPair(t, h, 80)
	c, s := client.ID(), server.ID()
	if c.LocalAddr != s.RemoteAddr || c.LocalPort != s.RemotePort ||
		c.RemoteAddr != s.LocalAddr || c.RemotePort != s.LocalPort {
		t.Fatalf("client names the connection %+v, server %+v", c, s)
	}
	if s.LocalAddr != addrB || s.LocalPort != 80 {
		t.Fatalf("server end = %+v, want %v:80", s, addrB)
	}
}

// TestConnIDString: the text is what %v:%d<->%v:%d renders — ST-TCP orders
// its connections by it — and costs the one allocation of the result.
func TestConnIDString(t *testing.T) {
	for _, id := range []ConnID{
		{},
		{LocalAddr: addrB, LocalPort: 80, RemoteAddr: addrA, RemotePort: 9999},
		{LocalAddr: ip.MakeAddr(255, 255, 255, 255), LocalPort: 65535, RemoteAddr: ip.MakeAddr(100, 10, 1, 0), RemotePort: 10000},
	} {
		want := fmt.Sprintf("%v:%d<->%v:%d", id.LocalAddr, id.LocalPort, id.RemoteAddr, id.RemotePort)
		if got := id.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
	id := ConnID{LocalAddr: addrB, LocalPort: 80, RemoteAddr: addrA, RemotePort: 50000}
	if n := testing.AllocsPerRun(100, func() { _ = id.String() }); n > 1 {
		t.Fatalf("String allocated %.0f times, want the result only", n)
	}
}
