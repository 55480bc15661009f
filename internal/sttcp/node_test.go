package sttcp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// newPrimaryWithConns builds an unstarted primary node holding one
// established service connection per client endpoint, each set up as the
// stack would on accept: client bytes held for the backup, FIN gate installed.
func newPrimaryWithConns(tb testing.TB, clients []tcp.ConnID) *Node {
	tb.Helper()
	s := sim.New(1)
	host := cluster.New(s, cluster.HostConfig{
		Name: "primary", EthNum: 2, Addr: ip.MakeAddr(10, 0, 0, 2),
		Tracer: trace.NewRecorder(s.Now), Metrics: metrics.New(s.Now),
	})
	sp, _ := serial.NewPair(s, "a/tty", "b/tty", 0)
	host.AttachSerial(sp)
	node, err := NewNode(host, RolePrimary, Config{
		ServiceAddr: ip.MakeAddr(10, 0, 0, 100),
		ServicePort: 80,
		PeerAddr:    ip.MakeAddr(10, 0, 0, 3),
	}, nil)
	if err != nil {
		tb.Fatalf("node: %v", err)
	}
	for i, id := range clients {
		c, err := host.TCP().CreateReplicaConn(id, uint32(0x1000+i), node.setupConn)
		if err != nil {
			tb.Fatalf("conn %v: %v", id, err)
		}
		c.ForceEstablish(0x2000)
	}
	return node
}

// clientIDs returns n distinct service-connection IDs whose client
// addresses and ports span every decimal width, so that text order and
// numeric order disagree on them.
func clientIDs(n int) []tcp.ConnID {
	ids := make([]tcp.ConnID, n)
	for i := range ids {
		ids[i] = tcp.ConnID{
			LocalAddr:  ip.MakeAddr(10, 0, 0, 100),
			LocalPort:  80,
			RemoteAddr: ip.MakeAddr(10, 0, byte(i%3*99), byte(1+i%5*50)),
			RemotePort: uint16(9 + i*7919%56000),
		}
	}
	return ids
}

// TestSortedKeysIsTextOrder: the order the node walks its connections in —
// heartbeat contents, takeover retransmit order, every golden — is the
// order of ConnID.String, whatever the port widths. Numeric field order
// would differ on these IDs ("…:10000" sorts before "…:9999").
func TestSortedKeysIsTextOrder(t *testing.T) {
	ids := clientIDs(300)
	ids = append(ids,
		tcp.ConnID{LocalAddr: ip.MakeAddr(10, 0, 0, 100), LocalPort: 80, RemoteAddr: ip.MakeAddr(10, 0, 0, 1), RemotePort: 9999},
		tcp.ConnID{LocalAddr: ip.MakeAddr(10, 0, 0, 100), LocalPort: 80, RemoteAddr: ip.MakeAddr(10, 0, 0, 1), RemotePort: 10000},
	)
	node := newPrimaryWithConns(t, ids)
	got := node.sortedKeys()

	want := append([]tcp.ConnID(nil), ids...)
	sort.Slice(want, func(i, j int) bool { return want[i].String() < want[j].String() })
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	numeric := true
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key %d = %v, want %v", i, got[i], want[i])
		}
		if i > 0 && got[i-1].RemoteAddr == got[i].RemoteAddr && got[i-1].RemotePort > got[i].RemotePort {
			numeric = false
		}
	}
	if numeric {
		t.Fatal("test IDs do not tell text order from numeric order")
	}
}

// TestHoldOccupancyRunningTotal drives every way the bytes held for the
// backup change — client bytes delivered, application reads, releases on
// the backup's reports, a dropped connection, non-fault-tolerant mode —
// across several connections, and after every step compares the occupancy
// gauge with the sum of their unreported bytes.
func TestHoldOccupancyRunningTotal(t *testing.T) {
	hs := newHeldConns(t, 6)
	node := hs[0].node
	check := func(step string) {
		t.Helper()
		if got, want := node.mHoldBytes.Value(), unreported(hs); got != want {
			t.Fatalf("%s: gauge reads %d, the connections hold %d unreported bytes", step, got, want)
		}
	}

	rng := rand.New(rand.NewSource(5))
	var peak int64
	for step := 0; step < 400; step++ {
		h := hs[rng.Intn(len(hs))]
		switch rng.Intn(4) {
		case 0, 1:
			h.deliver(1 + rng.Int63n(300))
		case 2:
			h.readN(rng.Int63n(300))
		case 3:
			h.report(h.reported + rng.Int63n(h.end-h.reported+1))
		}
		check("step")
		peak = max(peak, unreported(hs))
	}
	if peak == 0 || node.mHoldBytes.Max() != peak {
		t.Fatalf("gauge max %d, peak of the recomputed sum %d", node.mHoldBytes.Max(), peak)
	}

	// Dropping a connection takes its bytes out of the total.
	victim := hs[1]
	victim.deliver(100)
	node.dropConn(victim.rc.conn.ID())
	hs = slices.Delete(hs, 1, 2)
	check("drop")

	// Declaring the backup failed stops holding: nothing is held any more.
	node.declarePeerFailed("backup declared failed")
	for _, h := range hs {
		if h.rc.conn.Held() != nil {
			t.Fatalf("%v still holds bytes in non-FT mode", h.rc.conn.ID())
		}
	}
	if got := node.mHoldBytes.Value(); got != 0 {
		t.Fatalf("gauge reads %d in non-FT mode", got)
	}
}

// TestLifecycleTable states ROADMAP item 6(a)'s properties of the node's
// transition table: every state but Stopped can crash into Stopped, Stopped
// is terminal, and — over every path the table allows — a node that took
// over never acts as a backup again. A move the table refuses changes
// nothing on a real node either.
func TestLifecycleTable(t *testing.T) {
	states := []NodeState{StateActive, StateNonFT, StateTakenOver, StateStopped}
	for _, s := range states {
		for _, r := range []Role{RolePrimary, RoleBackup} {
			if _, ok := transition(s, r, StateStopped); ok != (s != StateStopped) {
				t.Errorf("%v (%v) → stopped allowed = %v", s, r, ok)
			}
			for _, to := range states {
				if _, ok := transition(StateStopped, r, to); ok {
					t.Errorf("stopped (%v) → %v allowed: stopped must be terminal", r, to)
				}
			}
		}
	}

	type position struct {
		state NodeState
		role  Role
	}
	seen := map[position]bool{{StateTakenOver, RoleBackup}: true}
	for frontier := []position{{StateTakenOver, RoleBackup}}; len(frontier) > 0; frontier = frontier[1:] {
		for _, to := range states {
			role, ok := transition(frontier[0].state, frontier[0].role, to)
			next := position{to, role}
			if !ok || seen[next] {
				continue
			}
			if next == (position{StateActive, RoleBackup}) {
				t.Fatalf("a path from taken-over leads back to an active backup (via %v)", frontier[0])
			}
			seen[next] = true
			frontier = append(frontier, next)
		}
	}
	if !seen[position{StateActive, RolePrimary}] || !seen[position{StateStopped, RolePrimary}] {
		t.Fatalf("taken-over reaches %v; want the rejoin as primary and its crash", seen)
	}

	node := newPrimaryWithConns(t, nil)
	if err := node.EnableReplication(ip.MakeAddr(10, 0, 0, 3), nil); err == nil || node.State() != StateActive {
		t.Fatalf("re-enabling replication on an active node: err %v, state %v", err, node.State())
	}
	node.Stop()
	node.Stop()
	if err := node.EnableReplication(ip.MakeAddr(10, 0, 0, 3), nil); err == nil || node.State() != StateStopped {
		t.Fatalf("re-enabling replication on a stopped node: err %v, state %v", err, node.State())
	}
}

// BenchmarkNodeSortedKeys is the per-heartbeat, per-detector-tick walk
// order at the scale workload's size.
func BenchmarkNodeSortedKeys(b *testing.B) {
	node := newPrimaryWithConns(b, clientIDs(1000))
	if got := len(node.conns); got != 1000 {
		b.Fatalf("%d distinct connections, want 1000", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(node.sortedKeys()) != 1000 {
			b.Fatal("keys lost")
		}
	}
}

// TestHeldSegmentOwnsItsBytes holds the borrowed-frame contract at its one
// keeper outside the receive buffers: a segment the backup parks until the
// primary's ISN announcement outlives the frame it arrived in, so it must
// carry its own copy of the payload. A normal run parks only the payload-less
// SYN, which is why every behaviour suite passes with the clone in
// filterSegment removed; this one does not.
func TestHeldSegmentOwnsItsBytes(t *testing.T) {
	s := sim.New(1)
	service, client := ip.MakeAddr(10, 0, 0, 100), ip.MakeAddr(10, 0, 0, 1)
	host := cluster.New(s, cluster.HostConfig{
		Name: "backup", EthNum: 3, Addr: ip.MakeAddr(10, 0, 0, 3),
		Tracer: trace.NewRecorder(s.Now), Metrics: metrics.New(s.Now),
	})
	sp, _ := serial.NewPair(s, "a/tty", "b/tty", 0)
	host.AttachSerial(sp)
	node, err := NewNode(host, RoleBackup, Config{ServiceAddr: service, ServicePort: 80, PeerAddr: ip.MakeAddr(10, 0, 0, 2)}, nil)
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	if err := node.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}

	const irs, iss = 0x2000, 0x1000
	id := tcp.ConnID{LocalAddr: service, LocalPort: 80, RemoteAddr: client, RemotePort: 50000}
	pkt := ip.Packet{Src: client, Dst: service, Proto: ip.ProtoTCP}
	frame := []byte("what the client wrote before the announcement arrived") // the link's pooled frame
	want := string(frame)
	pkt.Payload = frame
	for _, seg := range []*tcp.Segment{
		{SrcPort: 50000, DstPort: 80, Seq: irs, Flags: tcp.FlagSYN, Window: 65535},
		{SrcPort: 50000, DstPort: 80, Seq: irs + 1, Ack: iss + 1, Flags: tcp.FlagACK | tcp.FlagPSH, Window: 65535, Payload: frame},
	} {
		if node.filterSegment(pkt, seg) {
			t.Fatalf("segment %v of an unannounced connection was not parked", seg)
		}
	}
	// The handler returns; the link reissues the frame to the next packet.
	for i := range frame {
		frame[i] = 0xDB
	}

	node.adoptAnnouncement(id, iss)
	c, ok := host.TCP().Lookup(id)
	if !ok {
		t.Fatal("replaying the parked SYN created no replica connection")
	}
	buf := make([]byte, 2*len(want))
	n, _ := c.Read(buf)
	if got := string(buf[:n]); got != want {
		t.Fatalf("replica connection read %q, want %q: the parked segment aliased its frame", got, want)
	}
	for _, h := range node.held {
		t.Fatalf("segments still parked after the announcement: %v", h)
	}
}
