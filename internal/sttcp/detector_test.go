package sttcp

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hb"
	"repro/internal/ip"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// detectorHarness builds an unstarted node whose detectors can be driven
// directly with synthetic peer views, plus a live local connection whose
// application positions the test controls by writing/reading through a
// pair of in-memory stacks. To keep it lean, the local connection is a
// replica created via CreateReplicaConn and fed with InjectStreamBytes.
type detectorHarness struct {
	sim  *sim.Simulator
	node *Node
	rc   *repConn
	conn *tcp.Conn
}

func newDetectorHarness(t *testing.T, mutate func(*Config)) *detectorHarness {
	t.Helper()
	s := sim.New(1)
	tr := trace.NewRecorder(s.Now)
	host := cluster.New(s, cluster.HostConfig{Name: "primary", EthNum: 2, Addr: ip.MakeAddr(10, 0, 0, 2), Tracer: tr})
	sp, _ := serial.NewPair(s, "a/tty", "b/tty", 0)
	host.AttachSerial(sp)
	cfg := Config{
		ServiceAddr: ip.MakeAddr(10, 0, 0, 100),
		ServicePort: 80,
		PeerAddr:    ip.MakeAddr(10, 0, 0, 3),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	node, err := NewNode(host, RolePrimary, cfg, nil)
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	// A started node always has an exchanger (pair builds it). This one is
	// never started: the detectors read its view of the links, and no
	// heartbeat runs.
	node.ex = hb.NewExchanger(host.Clock(), node.comp, node.cfg.HBPeriod, tr, host.Metrics())
	id := tcp.ConnID{
		LocalAddr:  cfg.ServiceAddr,
		LocalPort:  80,
		RemoteAddr: ip.MakeAddr(10, 0, 0, 1),
		RemotePort: 50000,
	}
	conn, err := host.TCP().CreateReplicaConn(id, 0x1000, nil)
	if err != nil {
		t.Fatalf("conn: %v", err)
	}
	conn.ForceEstablish(0x2000)
	rc := newRepConn(conn)
	rc.replicated = true
	rc.peerValid = true
	rc.peerEstab = true
	node.addConn(rc)
	return &detectorHarness{sim: s, node: node, rc: rc, conn: conn}
}

// advance local application positions: write bytes into the send buffer
// (appW) and receive+read bytes (appR).
func (h *detectorHarness) localProgress(t *testing.T, bytes int) {
	t.Helper()
	if bytes <= 0 {
		return
	}
	if _, err := h.conn.Write(make([]byte, bytes)); err != nil {
		t.Fatalf("write: %v", err)
	}
	off := h.conn.LastByteReceived()
	h.conn.InjectStreamBytes(off, make([]byte, bytes))
	buf := make([]byte, bytes)
	for read := 0; read < bytes; {
		n, err := h.conn.Read(buf)
		if err != nil || n == 0 {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		read += n
	}
}

func (h *detectorHarness) step(d time.Duration) {
	_ = h.sim.Run(d)
}

// report applies a peer heartbeat numbered seq that carries the given
// application positions for the harness connection.
func (h *detectorHarness) report(seq uint64, appW, appR int64) {
	id := h.conn.ID()
	h.node.applyPeerConnState(&hb.ConnState{
		RemoteAddr: id.RemoteAddr, RemotePort: id.RemotePort, LocalPort: id.LocalPort,
		LastByteReceived: uint32(h.conn.LastByteReceived()), LastAckReceived: uint32(h.conn.LastAckReceived()),
		LastAppByteWritten: uint32(appW), LastAppByteRead: uint32(appR),
		Established: true,
	}, seq)
}

// TestDetectAppLagBytesCriterion: a byte lag beyond AppMaxLagBytes that
// the peer's reports keep showing for appLagByteHold fires; a transient one
// does not — and neither does a healthy peer whose reports are merely old
// by the time the detector looks, which is what the criterion used to
// convict (it compared the live local position with the last report's).
func TestDetectAppLagBytesCriterion(t *testing.T) {
	h := newDetectorHarness(t, func(c *Config) {
		c.AppMaxLagBytes = 1000
		c.AppMaxLagTime = time.Hour // keep the other criterion out
	})
	fired := func() bool { return h.node.detectAppLag(h.rc, h.sim.Now()) }

	// A healthy peer at full rate: every report matches our position at
	// the instant it arrives, then we run 5000 bytes ahead of it until the
	// next one. Checked between reports, for three holds' worth.
	var seq uint64
	var pos int64
	for i := 0; i < 15; i++ {
		h.report(seq, pos, pos)
		seq++
		h.localProgress(t, 5000)
		pos += 5000
		h.step(100 * time.Millisecond)
		if fired() {
			t.Fatalf("healthy peer convicted on a %v-old report (round %d)", 100*time.Millisecond, i)
		}
		h.step(100 * time.Millisecond)
	}

	// The serial copy of a heartbeat arrives after the local application
	// has moved on: it must neither re-sample the lag nor, when it is
	// older than the view in place, replace it.
	h.report(seq, pos, pos)
	h.localProgress(t, 5000)
	pos += 5000
	h.report(seq, pos-5000, pos-5000)     // same heartbeat, second link
	h.report(seq-1, pos-10000, pos-10000) // an older one, late
	if h.rc.peerAppLag != 0 || h.rc.peerAppW != pos-5000 {
		t.Fatalf("stale copies changed the view: lag %d, peer write position %d (want 0, %d)",
			h.rc.peerAppLag, h.rc.peerAppW, pos-5000)
	}
	seq++

	// A real lag, but the peer catches up before the hold expires.
	h.report(seq, pos-5000, pos-5000)
	seq++
	if fired() {
		t.Fatal("fired on first observation")
	}
	h.step(500 * time.Millisecond)
	h.report(seq, pos, pos)
	seq++
	if fired() {
		t.Fatal("fired after the peer caught up")
	}

	// Now reports that keep showing the lag past the hold.
	h.localProgress(t, 5000)
	pos += 5000
	for i := 0; i < 6; i++ {
		h.report(seq, pos-5000, pos-5000)
		seq++
		if i < 5 && fired() {
			t.Fatalf("fired %v into a %v hold", time.Duration(i)*200*time.Millisecond, appLagByteHold)
		}
		h.step(200 * time.Millisecond)
	}
	if !fired() {
		t.Fatal("sustained byte lag not detected")
	}
	if h.node.State() != StateNonFT {
		t.Fatalf("node state %v after detection", h.node.State())
	}
}

// TestDetectAppLagTimeCriterion: the watermark path — a *particular byte*
// unprocessed for AppMaxLagTime fires even when the lag is small, but peer
// progress resets the clock.
func TestDetectAppLagTimeCriterion(t *testing.T) {
	h := newDetectorHarness(t, func(c *Config) {
		c.AppMaxLagBytes = 1 << 40 // keep the bytes criterion out
		c.AppMaxLagTime = 2 * time.Second
	})
	h.localProgress(t, 100) // peer is 100 bytes behind
	if h.node.detectAppLag(h.rc, h.sim.Now()) {
		t.Fatal("fired immediately")
	}
	// Peer keeps making progress (but stays behind): each advance moves
	// the watermark and restarts the clock.
	for i := 0; i < 5; i++ {
		h.step(time.Second)
		h.rc.peerAppW += 10
		h.rc.peerAppR += 10
		if h.node.detectAppLag(h.rc, h.sim.Now()) {
			t.Fatalf("fired despite peer progress (iteration %d)", i)
		}
	}
	// Now the peer stalls completely.
	h.step(2100 * time.Millisecond)
	if !h.node.detectAppLag(h.rc, h.sim.Now()) {
		t.Fatal("stalled peer byte not detected after AppMaxLagTime")
	}
}

// TestDetectNICLagGraceAndBaseline: the bytes criterion only counts lag
// accrued since the IP link died, and only after the grace period. Every
// check falls inside nicLagTime, so the stall criterion stays out.
func TestDetectNICLagGraceAndBaseline(t *testing.T) {
	h := newDetectorHarness(t, nil)
	// Big pre-existing asymmetry: local received 4 × nicLagBytes, peer
	// reported 0.
	h.conn.InjectStreamBytes(0, make([]byte, 4*nicLagBytes))
	h.node.ipDown.set(true, h.sim.Now())

	if h.node.detectNICLag(h.rc, h.sim.Now()) {
		t.Fatal("fired inside the grace period")
	}
	h.step(nicLagGrace + 100*time.Millisecond)
	// First post-grace tick takes the baseline; the huge absolute delta
	// must not fire.
	if h.node.detectNICLag(h.rc, h.sim.Now()) {
		t.Fatal("fired on pre-existing asymmetry (baseline not applied)")
	}
	// Now the peer falls a further nicLagBytes+1 behind.
	h.conn.InjectStreamBytes(4*nicLagBytes, make([]byte, nicLagBytes+1))
	if !h.node.detectNICLag(h.rc, h.sim.Now()) {
		t.Fatal("fresh lag beyond nicLagBytes not detected")
	}
}

// TestDetectorsIgnoreUnreplicatedConns: local-only connections are
// invisible to the failure detectors. The same peer report, one that shows
// the peer stalled AppMaxLagBytes behind past appLagByteHold, convicts
// through a replicated connection and not through a local-only one.
func TestDetectorsIgnoreUnreplicatedConns(t *testing.T) {
	for _, replicated := range []bool{true, false} {
		h := newDetectorHarness(t, nil)
		h.rc.replicated = replicated
		h.localProgress(t, 2*int(h.node.cfg.AppMaxLagBytes))
		h.report(1, 0, 0)
		h.node.runDetectors()
		h.step(appLagByteHold + 100*time.Millisecond)
		h.node.runDetectors()
		want := StateNonFT
		if !replicated {
			want = StateActive
		}
		if got := h.node.State(); got != want {
			t.Errorf("replicated=%v: node %v after a stalled report held past %v, want %v", replicated, got, appLagByteHold, want)
		}
	}
}
