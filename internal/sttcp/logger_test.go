package sttcp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// logged returns everything s retains from stream offset from on.
func logged(s *loggedStream, from int64) ([]byte, error) {
	return s.log.Slice(from, s.log.Len())
}

func TestStreamLogInOrder(t *testing.T) {
	s := newLoggedStream(0, 1024)
	s.Accept(0, []byte("hello "), s.retain)
	s.Accept(6, []byte("world"), s.retain)
	got, err := logged(s, 0)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("slice = %q, %v", got, err)
	}
	got, err = s.log.Slice(6, 3)
	if err != nil || string(got) != "wor" {
		t.Fatalf("sub-slice = %q, %v", got, err)
	}
}

// Every payload arrives in one frame buffer, as it does from the logger's tap,
// and the link reissues it once accept has returned: a kept chunk is a copy.
func TestStreamLogOutOfOrderMerge(t *testing.T) {
	s := newLoggedStream(0, 1024)
	frame := make([]byte, 5)
	s.Accept(10, frame[:copy(frame, "cccc")], s.retain)
	s.Accept(5, frame[:copy(frame, "bbbbb")], s.retain)
	if s.log.End() != 0 {
		t.Fatalf("the log reached %d before the gap filled", s.log.End())
	}
	s.Accept(0, frame[:copy(frame, "aaaaa")], s.retain)
	got, err := logged(s, 0)
	if err != nil || string(got) != "aaaaabbbbbcccc" {
		t.Fatalf("merged = %q, %v", got, err)
	}
}

func TestStreamLogDuplicateAndOverlap(t *testing.T) {
	s := newLoggedStream(0, 1024)
	s.Accept(0, []byte("abcdef"), s.retain)
	s.Accept(3, []byte("defghi"), s.retain) // overlapping retransmission
	s.Accept(0, []byte("abc"), s.retain)    // pure duplicate
	got, err := logged(s, 0)
	if err != nil || string(got) != "abcdefghi" {
		t.Fatalf("after overlap = %q, %v", got, err)
	}
}

func TestStreamLogEviction(t *testing.T) {
	s := newLoggedStream(0, 8)
	s.Accept(0, []byte("0123456789ab"), s.retain) // 12 bytes into cap 8
	if s.log.Base() != 4 || s.log.Len() != 8 {
		t.Fatalf("base=%d len=%d after eviction", s.log.Base(), s.log.Len())
	}
	if _, err := logged(s, 0); !errors.Is(err, tcp.ErrReleased) {
		t.Fatalf("slice below base err = %v", err)
	}
	got, err := logged(s, 4)
	if err != nil || string(got) != "456789ab" {
		t.Fatalf("retained = %q, %v", got, err)
	}
	s.Accept(12, []byte("cde"), s.retain) // a full log evicts exactly what comes in
	if got, _ := logged(s, 7); string(got) != "789abcde" || s.log.Base() != 7 {
		t.Fatalf("after a second eviction retained %q from %d, want 789abcde from 7", got, s.log.Base())
	}
}

// TestStreamLogProperty delivers a random stream chopped into shuffled,
// partially duplicated segments and checks the retained suffix is always
// exact — the invariant recovery correctness rests on.
func TestStreamLogProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(3000) + 100
		stream := make([]byte, size)
		rng.Read(stream)
		type segment struct {
			off int64
			b   []byte
		}
		var segs []segment
		for off := 0; off < size; {
			n := rng.Intn(300) + 1
			if off+n > size {
				n = size - off
			}
			segs = append(segs, segment{int64(off), stream[off : off+n]})
			off += n
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		segs = append(segs, segs[:len(segs)/4]...) // duplicates

		s := newLoggedStream(0, size+100)
		for _, sg := range segs {
			s.Accept(sg.off, sg.b, s.retain)
		}
		if s.log.End() != int64(size) {
			return false
		}
		got, err := logged(s, 0)
		return err == nil && bytes.Equal(got, stream)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// loggerNet is a logger and the server that asks it for bytes, on one
// switch; the client exists only as the source address of tapped packets.
type loggerNet struct {
	sim       *sim.Simulator
	lg        *Logger
	id        tcp.ConnID
	peer      ip.Addr
	recovered []recoveryDataMsg // what reached the peer's control port, in order
}

const loggerNetIRS = 0xfffffff0 // the stream crosses the 32-bit wrap 15 bytes in

func newLoggerNet(t *testing.T) *loggerNet {
	t.Helper()
	s := sim.New(1)
	sw := netem.NewSwitch(s, "sw", 0)
	host := func(name string, num byte) *cluster.Host {
		h := cluster.New(s, cluster.HostConfig{Name: name, EthNum: uint32(num), Addr: ip.MakeAddr(10, 0, 0, num)})
		netem.Connect(s, sw, h.NIC(), netem.DefaultLANConfig())
		return h
	}
	backup, lgHost := host("backup", 3), host("logger", 4)
	n := &loggerNet{sim: s, peer: ip.MakeAddr(10, 0, 0, 3), id: tcp.ConnID{
		LocalAddr: ip.MakeAddr(10, 0, 0, 100), LocalPort: 80,
		RemoteAddr: ip.MakeAddr(10, 0, 0, 1), RemotePort: 50123,
	}}
	n.lg = NewLogger(lgHost, Config{ServiceAddr: n.id.LocalAddr, ServicePort: n.id.LocalPort})
	if err := n.lg.Start(); err != nil {
		t.Fatalf("logger: %v", err)
	}
	err := backup.Netstack().UDPListen(DefaultCtrlPort, func(_ ip.Addr, _ uint16, payload []byte) {
		if m, err := decodeRecoveryData(payload); err == nil {
			n.recovered = append(n.recovered, m)
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	n.tap(tcp.Segment{Seq: loggerNetIRS, Flags: tcp.FlagSYN})
	return n
}

// tap hands the logger one client→service segment as its multicast tap does.
func (n *loggerNet) tap(seg tcp.Segment) {
	seg.SrcPort, seg.DstPort = n.id.RemotePort, n.id.LocalPort
	n.lg.handlePacket(ip.Packet{Src: n.id.RemoteAddr, Dst: n.id.LocalAddr, Proto: ip.ProtoTCP,
		Payload: seg.AppendEncode(nil, n.id.RemoteAddr, n.id.LocalAddr)})
}

// tapData taps the stream bytes [off, off+n) in pattern content.
func (n *loggerNet) tapData(off int64, size int) {
	p := make([]byte, size)
	for i := range p {
		p[i] = logPat(off + int64(i))
	}
	n.tap(tcp.Segment{Seq: loggerNetIRS + 1 + uint32(off), Flags: tcp.FlagACK, Payload: p})
}

func logPat(off int64) byte { return byte(off*31 + off>>10) }

// TestLoggerOutOfOrderBound: a client segment lost on the logger's tap
// alone is never retransmitted (the servers acknowledged it), so everything
// after it waits behind a permanent hole. What waits is bounded by the
// log's capacity; the rest is dropped, not hoarded.
func TestLoggerOutOfOrderBound(t *testing.T) {
	const capacity, mss = holdBufferSize, 1460
	n := newLoggerNet(t)
	n.tapData(0, 100)
	for off := int64(200); off < 2*capacity; off += mss { // [100, 200) never arrives
		n.tapData(off, mss)
	}
	s := n.lg.streams[n.id]
	if s.log.End() != 100 {
		t.Fatalf("in-order stream reached %d across the hole at 100", s.log.End())
	}
	// Filling the hole delivers what waited behind it.
	n.tapData(100, 100)
	if got := s.log.End() - 200; got > capacity || got < capacity-mss {
		t.Fatalf("logger held %d out-of-order bytes behind the hole, want the %d of its capacity (to within a segment)", got, capacity)
	}
}

// TestLoggerServesRetainedTail streams 8 MiB through a 1 MiB log and asks
// for what is left: the request below the retained window goes unanswered,
// the one for the tail is served byte for byte in recovery chunks.
func TestLoggerServesRetainedTail(t *testing.T) {
	const capacity, total, mss = holdBufferSize, 8 << 20, 1460
	n := newLoggerNet(t)
	for off := int64(0); off < total; off += mss {
		n.tapData(off, int(min(mss, total-off)))
	}
	s := n.lg.streams[n.id]
	if s.log.Base() != total-capacity || s.log.End() != total {
		t.Fatalf("log retains [%d, %d), want the last MiB [%d, %d)", s.log.Base(), s.log.End(), total-capacity, total)
	}
	request := func(from int64) {
		req := recoveryRequestMsg{RemoteAddr: n.id.RemoteAddr, RemotePort: n.id.RemotePort, LocalPort: n.id.LocalPort, From: from, To: -1}
		n.lg.handleCtrl(n.peer, DefaultCtrlPort, req.encode())
		if err := n.sim.Run(time.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	request(total - capacity - 1)
	if len(n.recovered) != 0 || n.lg.Served != 0 {
		t.Fatalf("a request one byte below the retained window was served (%d datagrams)", n.lg.Served)
	}
	const tail = 50_000 // not a multiple of the chunk (the last datagram is short), and a burst the link queue holds
	request(total - tail)
	if want := int64((tail + recoveryChunk - 1) / recoveryChunk); n.lg.Served != want || int64(len(n.recovered)) != want {
		t.Fatalf("served %d datagrams, %d arrived, want %d", n.lg.Served, len(n.recovered), want)
	}
	next := int64(total - tail)
	for _, m := range n.recovered {
		if m.Off != next {
			t.Fatalf("datagram at %d, want %d", m.Off, next)
		}
		for i, b := range m.Data {
			if b != logPat(m.Off+int64(i)) {
				t.Fatalf("byte %d recovered as %#x, want %#x", m.Off+int64(i), b, logPat(m.Off+int64(i)))
			}
		}
		next += int64(len(m.Data))
	}
	if next != total {
		t.Fatalf("recovered up to %d, want %d", next, total)
	}
}
