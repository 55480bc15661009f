package sttcp

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/hb"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// ErrNoSerial is the node construction error.
var ErrNoSerial = errors.New("sttcp: host has no serial port attached")

// maxHeldSegments bounds the backup's per-connection queue of segments
// awaiting the primary's ISN announcement.
const maxHeldSegments = 128

// Gateway pinging: one echo request per pingInterval, lost after
// pingTimeout; pingFailsForVerdict consecutive (mine-ok, peer-fail)
// observations blame the peer's NIC.
const (
	pingInterval        = 500 * time.Millisecond
	pingTimeout         = 250 * time.Millisecond
	pingFailsForVerdict = 2
)

// recoveryChunk bounds each recovery-data datagram's payload (node and
// logger alike).
const recoveryChunk = 1024

// heldSegment is an inbound segment the backup parked until it learns the
// connection's ISN. It outlives the frame it arrived in: it owns its bytes.
type heldSegment struct {
	pkt ip.Packet
	seg tcp.Segment
}

// repConn is the node's replication state for one TCP connection.
type repConn struct {
	conn *tcp.Conn
	// key is conn.ID().String(), rendered once: it is the order the node
	// walks its connections in (Node.ordered).
	key string

	// replicated is false for connections that exist only locally —
	// those accepted while the node ran alone (post-takeover or non-FT)
	// before a repaired peer rejoined. They are excluded from the
	// heartbeat and from peer-lag detection: a rejoining backup has no
	// way to reconstruct their history.
	replicated bool

	// Latest peer view (unwrapped to 64-bit stream offsets), from the
	// heartbeat numbered peerSeq, first applied at peerAt. peerAppLag is
	// how far the peer's application trailed ours, on the worse of the two
	// streams, at that instant.
	peerValid  bool
	peerSeq    uint64
	peerAt     time.Time
	peerLBR    int64 // peer's LastByteReceived
	peerLAR    int64 // peer's LastAckReceived
	peerAppW   int64 // peer's LastAppByteWritten
	peerAppR   int64 // peer's LastAppByteRead
	peerAppLag int64
	peerFIN    bool
	peerRST    bool
	peerEstab  bool

	// Failure-criterion clocks (detect.go): the peer's application write
	// and read positions (§4.2.1) and, while the IP link is down, its
	// client-stream position (§4.3), each against ours; how long the byte
	// lag has exceeded AppMaxLagBytes; and the NIC criterion's baseline,
	// the lag it had when the criterion engaged.
	appW, appR, nic stall
	byteLag         held
	nicBaseline     int64
	nicBaselineSet  bool

	// FIN disagreement handling (§4.2.2).
	finDelayTimer    *sim.Timer // primary: local FIN gated for MaxDelayFIN
	finDisagreeTimer *sim.Timer // primary: backup FIN'd, we did not
	majorityTimer    *sim.Timer // primary: pending witness majority vote

	// resp is the local write-progress history feeding the suspicion
	// scorer's response-latency staleness (suspicion.go). scoredAppW
	// tracks the last peer position the scorer measured a per-advance
	// lag for; respLag holds that lag (sticky until the next advance,
	// stamped respLagAt).
	resp       respRing
	scoredAppW int64
	respLag    time.Duration
	respLagAt  time.Time
	// Input gating (suspicion.go): lateness only counts while the peer
	// actually holds the input it is late answering. inputLag is how long
	// the peer's receive offset has trailed ours, inputStarved whether that
	// has outlived inputLagGrace; inputOKSince stamps the recovery from the
	// last confirmed gap.
	inputLag     held
	inputStarved bool
	inputOKSince time.Time

	lastRecoveryReq time.Time
}

// witnessState is the primary's view of the witness replica's verdict on
// one connection (the §4.2.2 majority mechanism).
type witnessState struct {
	closed bool // it generated a FIN or an RST
	seen   time.Time
}

func newRepConn(c *tcp.Conn) *repConn {
	return &repConn{conn: c, key: c.ID().String()}
}

// Node is one ST-TCP server endpoint — the primary or the active backup.
// It owns the replication machinery around the host's TCP stack: the
// heartbeat exchanger on the dual links, the failure detectors of Table 1,
// the FIN disagreement protocol, the missed-byte recovery protocol, and the
// takeover / non-fault-tolerant transitions.
type Node struct {
	sim    *sim.Simulator
	clock  *sim.Clock // the host's at NewNode: every timer the node arms
	host   *cluster.Host
	role   Role
	drifts uint32 // peers noted drifting (DriftNotes); in role's word, so a Node stays in its size class
	cfg    Config
	tracer *trace.Recorder
	comp   string

	// detSpan is the detection span, opened lazily at the first evidence
	// of peer trouble (link loss, app lag, NIC lag, FIN disagreement) and
	// closed when the peer is declared failed; rwSpan is the
	// retransmit-wait span between takeover and the first post-takeover
	// transmission on a service connection.
	detSpan trace.SpanID
	rwSpan  trace.SpanID

	tcpStack  *tcp.Stack
	listener  *tcp.Listener
	ex        *hb.Exchanger
	peerPower *cluster.PowerController
	// onReplicaClose is replicaClosed, bound once for every connection.
	onReplicaClose func(rst bool)

	state NodeState
	conns map[tcp.ConnID]*repConn

	// ordered holds the same connections as conns, sorted by key: the order
	// heartbeats list connections in and takeover retransmits them in.
	// Decimal text and numeric field order disagree across port widths
	// ("10000" sorts before "9999"), so the order is the text's. addConn
	// and dropConn alone change it, together with conns. spare is the
	// snapshot a walk that drops connections reuses (snapshot).
	ordered []*repConn
	spare   []*repConn

	// Backup-only: segments parked until the ISN announcement, and the
	// announced ISNs.
	held      map[tcp.ConnID][]heldSegment
	announced map[tcp.ConnID]uint32

	// What the detectors know of the current peer, reset whole by every
	// pairing (detect.go), and the two tickers that feed it: the gateway
	// pinger (§4.3) and the detector clock.
	detectorState
	pingTicker *sim.Ticker
	detector   *sim.Ticker

	// lastSerialCRC tracks the local serial port's CRC-reject counter so
	// the scorer can tell a noisy cable from a dead one (suspicion.go). It
	// is the host's port, not the pair's.
	lastSerialCRC   int64
	lastSerialCRCAt time.Time

	// Primary-only, when a witness is configured: the witness's latest
	// per-connection verdicts, fed by a second heartbeat exchanger.
	witnessEx   *hb.Exchanger
	witnessView map[tcp.ConnID]witnessState

	// OnAccept is invoked for every established service connection (on
	// the backup these are the suppressed replicas); the replicated
	// application attaches here.
	OnAccept func(*tcp.Conn)

	// OnStateChange is invoked after every node state transition.
	OnStateChange func(NodeState)

	// verdict is why the node left StateActive (Verdict).
	verdict Verdict

	// Metric instruments, from the host's registry (nil no-ops without
	// one). mTakeovers, mSuspects and mNonFT move only in milestone,
	// together with their event.
	mTakeovers   *metrics.Counter
	mSuspects    *metrics.Counter
	mNonFT       *metrics.Counter
	mTakeoverLat *metrics.Histogram
	mHoldBytes   *metrics.Gauge
	mHeldSegs    *metrics.Gauge
	mRecovered   *metrics.Counter
	mSuspicion   *metrics.Gauge
	mHBDrift     *metrics.Gauge
}

// NewNode builds an ST-TCP node on host. peerPower is the out-of-band
// power switch for the other server (STONITH).
func NewNode(host *cluster.Host, role Role, cfg Config, peerPower *cluster.PowerController) (*Node, error) {
	cfg.fillDefaults()
	if host.Serial() == nil && !cfg.Witness {
		return nil, ErrNoSerial
	}
	n := &Node{
		sim:       host.Sim(),
		clock:     host.Clock(),
		host:      host,
		role:      role,
		cfg:       cfg,
		tracer:    host.Tracer(),
		comp:      host.Name() + "/sttcp",
		tcpStack:  host.TCP(),
		peerPower: peerPower,
		state:     StateActive,
		conns:     make(map[tcp.ConnID]*repConn),
		held:      make(map[tcp.ConnID][]heldSegment),
		announced: make(map[tcp.ConnID]uint32),
	}
	n.onReplicaClose = n.replicaClosed
	reg := host.Metrics()
	n.mTakeovers = reg.Counter(n.comp, "sttcp.takeovers")
	n.mSuspects = reg.Counter(n.comp, "sttcp.suspects")
	n.mNonFT = reg.Counter(n.comp, "sttcp.nonft_transitions")
	n.mTakeoverLat = reg.Histogram(n.comp, "sttcp.takeover_latency", nil)
	n.mHoldBytes = reg.Gauge(n.comp, "sttcp.holdbuf_bytes")
	n.mHeldSegs = reg.Gauge(n.comp, "sttcp.held_segments")
	n.mRecovered = reg.Counter(n.comp, "sttcp.recovered_bytes")
	n.mSuspicion = reg.Gauge(n.comp, "sttcp.suspicion_permille")
	n.mHBDrift = reg.Gauge(n.comp, "sttcp.hb_drift_permille")
	return n, nil
}

// Role returns the node's role.
func (n *Node) Role() Role { return n.role }

// State returns the node's life-cycle state.
func (n *Node) State() NodeState { return n.state }

// Verdict returns the verdict on which the node last left StateActive, the
// zero Verdict while it has not since it paired.
func (n *Node) Verdict() Verdict { return n.verdict }

// DriftNotes returns how many peers the node has noted a heartbeat cadence
// drift of (clock-rate skew suspected): at most one per pairing.
func (n *Node) DriftNotes() int { return int(n.drifts) }

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Host returns the underlying host.
func (n *Node) Host() *cluster.Host { return n.host }

// Start brings the node up: the service alias and listener, the control
// channel, and its pairing with the peer at Config.PeerAddr.
func (n *Node) Start() error {
	ns := n.host.Netstack()
	ns.AddAlias(n.cfg.ServiceAddr)

	l, err := n.tcpStack.Listen(n.cfg.ServiceAddr, n.cfg.ServicePort)
	if err != nil {
		return fmt.Errorf("sttcp: %s: %w", n.host.Name(), err)
	}
	n.listener = l
	l.NewConnSetup = n.setupConn
	l.OnEstablished = n.onEstablished
	if err := ns.UDPListen(DefaultCtrlPort, n.handleCtrl); err != nil {
		return fmt.Errorf("sttcp: %s: %w", n.host.Name(), err)
	}
	if err := n.pair(); err != nil {
		return err
	}
	n.host.OnCrash(n.Stop)
	return nil
}

// pair joins the node, in its role, to the peer at Config.PeerAddr — at
// Start, and again for every repaired peer (EnableReplication): the role's
// listener and segment hooks, a fresh heartbeat exchanger on both links, a
// zero detectorState, and the detector ticker.
func (n *Node) pair() error {
	if n.role == RolePrimary {
		// A rejoin can make a backup the primary: its hooks go.
		n.listener.ISNProvider = nil
		n.listener.OnSynRcvd = n.announceConn
		n.tcpStack.SegmentFilter = nil
	} else {
		n.listener.ISNProvider = func(id tcp.ConnID) (uint32, bool) {
			isn, ok := n.announced[id]
			return isn, ok
		}
		n.tcpStack.SegmentFilter = n.filterSegment
	}

	hbPort := uint16(DefaultHBPort)
	if n.cfg.Witness {
		// The witness heartbeats the primary on a dedicated port so
		// its liveness cannot be mistaken for the backup's.
		hbPort = DefaultWitnessHBPort
	}
	ns := n.host.Netstack()
	ns.UDPClose(hbPort) // a rejoin rebinds it toward the new peer
	udpCh, err := hb.NewUDPChannel(ns, hbPort, n.cfg.PeerAddr, hbPort)
	if err != nil {
		return fmt.Errorf("sttcp: %s: heartbeat channel: %w", n.host.Name(), err)
	}
	// Heartbeats tick on the host's timer clock, so an injected
	// clock-rate skew skews the cadence the peer observes.
	n.ex = hb.NewExchanger(n.clock, n.comp, n.cfg.HBPeriod, n.tracer, n.host.Metrics())
	n.ex.Attach(udpCh)
	if n.host.Serial() != nil {
		n.ex.Attach(hb.NewSerialChannel(n.host.Serial()))
	}
	n.ex.Compose = n.composeHB
	n.ex.OnMessage = n.handleHB
	n.ex.OnLinkDown = n.onLinkDown
	n.ex.OnLinkUp = n.onLinkUp
	n.detectorState = detectorState{}
	n.ex.Start()

	// A primary with a witness runs a second exchanger toward it; only
	// the per-connection FIN verdicts are consumed (§4.2.2 majority). It
	// is built once: a rejoin pairs with a new backup, not a new witness.
	if !n.cfg.WitnessAddr.IsZero() && n.witnessEx == nil {
		wCh, err := hb.NewUDPChannel(ns, DefaultWitnessHBPort, n.cfg.WitnessAddr, DefaultWitnessHBPort)
		if err != nil {
			return fmt.Errorf("sttcp: %s: witness channel: %w", n.host.Name(), err)
		}
		n.witnessView = make(map[tcp.ConnID]witnessState)
		n.witnessEx = hb.NewExchanger(n.clock, n.comp+"/witness", n.cfg.HBPeriod, n.tracer, n.host.Metrics())
		n.witnessEx.Attach(wCh)
		n.witnessEx.Compose = n.composeHB
		n.witnessEx.OnMessage = n.handleWitnessHB
		n.witnessEx.Start()
	}

	if !n.cfg.Witness {
		n.detector = n.clock.NewTicker(max(n.cfg.HBPeriod/2, 50*time.Millisecond), n.runDetectors)
	}
	return nil
}

// Stop halts all node activity (host crash or external shutdown).
func (n *Node) Stop() {
	if n.leave(StateStopped) {
		n.endRetransmitWait(0, "node stopped while waiting for retransmission")
	}
}

// leave is the one step out of a serving state — into TakenOver, NonFT or
// Stopped — and silences what the pair ran: both exchangers, the detector,
// the pinger and every FIN timer. It reports whether the lifecycle allowed
// the move.
func (n *Node) leave(s NodeState) bool {
	if !n.setState(s) {
		return false
	}
	if n.ex != nil {
		n.ex.Stop()
	}
	if n.witnessEx != nil {
		n.witnessEx.Stop()
	}
	if n.detector != nil {
		n.detector.Stop()
	}
	n.stopPinging()
	for _, rc := range n.ordered {
		n.cancelFINTimers(rc)
	}
	return true
}

// setState is the only place the node's state changes: it takes a move the
// lifecycle table allows (transition) and reports whether there was one.
func (n *Node) setState(s NodeState) bool {
	role, ok := transition(n.state, n.role, s)
	if !ok {
		return false
	}
	n.state, n.role = s, role
	if n.OnStateChange != nil {
		n.OnStateChange(s)
	}
	return true
}

// addConn tracks rc, in conns and at its place in ordered. A connection
// accepted again on a 4-tuple whose closed predecessor is still tracked
// takes the predecessor's place.
func (n *Node) addConn(rc *repConn) {
	n.conns[rc.conn.ID()] = rc
	if i, found := n.find(rc.key); found {
		n.ordered[i] = rc
	} else {
		n.ordered = slices.Insert(n.ordered, i, rc)
	}
}

// find is where key sits in ordered, or would.
func (n *Node) find(key string) (int, bool) {
	return slices.BinarySearchFunc(n.ordered, key, func(rc *repConn, key string) int { return strings.Compare(rc.key, key) })
}

// snapshot copies ordered for a walk that drops connections as it goes;
// the walk hands it back with release. A walk nested in another takes a
// buffer of its own.
func (n *Node) snapshot() []*repConn {
	walk := append(n.spare, n.ordered...)
	n.spare = nil
	return walk
}

func (n *Node) release(walk []*repConn) {
	clear(walk)
	n.spare = walk[:0]
}

// --- Connection setup ---

// setupConn runs on every new passive connection before any segment
// processing: the backup suppresses output; the primary holds client bytes
// for the backup and installs the FIN gate.
func (n *Node) setupConn(c *tcp.Conn) {
	rc := newRepConn(c)
	n.addConn(rc)
	switch {
	case n.role == RoleBackup && n.state == StateActive:
		rc.replicated = true
		c.SetSuppressed(true)
		c.SetCloseSignalObserver(n.onReplicaClose)
	case n.role == RolePrimary && n.state == StateActive:
		rc.replicated = true
		c.Hold(holdBufferSize, n.mHoldBytes)
		c.SetFINGate(func(rst bool) { n.onLocalCloseSignal(rc, rst) })
	}
}

// replicaClosed is a suppressed connection's close-signal observer. A
// server generating a FIN must communicate it to its peer immediately
// through the heartbeat (§4.2.2); the segment itself stays suppressed.
func (n *Node) replicaClosed(bool) {
	if n.state == StateActive && n.ex != nil {
		n.ex.SendNow()
	}
}

// onEstablished hands an established connection to the application.
func (n *Node) onEstablished(c *tcp.Conn) {
	n.tracer.Emit(trace.KindConnEstablished, n.comp, "service conn %v established (%s)", c.ID(), n.role)
	if n.OnAccept != nil {
		n.OnAccept(c)
	}
}

// announceConn (primary) tells the backup about a new connection's
// sequence numbers, immediately over the control channel and redundantly
// in every heartbeat.
func (n *Node) announceConn(c *tcp.Conn) {
	if n.state != StateActive {
		return
	}
	id := c.ID()
	msg := connOpenMsg{RemoteAddr: id.RemoteAddr, RemotePort: id.RemotePort, LocalPort: id.LocalPort, ISS: c.ISS(), IRS: c.IRS()}
	raw := msg.encode()
	_ = n.host.Netstack().UDPSend(DefaultCtrlPort, n.cfg.PeerAddr, DefaultCtrlPort, raw)
	if !n.cfg.WitnessAddr.IsZero() {
		_ = n.host.Netstack().UDPSend(DefaultCtrlPort, n.cfg.WitnessAddr, DefaultCtrlPort, raw)
	}
}

// --- Backup segment holding ---

// filterSegment parks service-connection segments whose ISN announcement
// has not arrived yet; everything else passes through.
func (n *Node) filterSegment(pkt ip.Packet, seg *tcp.Segment) bool {
	if n.state != StateActive || pkt.Dst != n.cfg.ServiceAddr || seg.DstPort != n.cfg.ServicePort {
		return true
	}
	id := connKey(pkt.Dst, pkt.Src, seg.SrcPort, seg.DstPort)
	if _, ok := n.tcpStack.Lookup(id); ok {
		return true
	}
	if _, ok := n.announced[id]; ok {
		return true
	}
	q := n.held[id]
	if len(q) < maxHeldSegments {
		h := heldSegment{pkt: pkt, seg: *seg}
		h.pkt.Payload, h.seg.Payload = nil, bytes.Clone(seg.Payload)
		n.held[id] = append(q, h)
		n.mHeldSegs.Add(1)
	}
	return false
}

// adoptAnnouncement records the primary's ISN for a connection and replays
// any parked segments through normal demux.
func (n *Node) adoptAnnouncement(id tcp.ConnID, iss uint32) {
	if _, ok := n.announced[id]; ok {
		return
	}
	n.announced[id] = iss
	q := n.held[id]
	delete(n.held, id)
	n.mHeldSegs.Add(-int64(len(q)))
	for i := range q {
		n.tcpStack.HandleSegment(q[i].pkt, &q[i].seg)
	}
}

// --- Heartbeat compose / consume ---

// reportLocalAppFailure is the witness majority's verdict against this
// node's own application: the node flags itself failed (hb AppFailed) in an
// immediate heartbeat so the peer takes the recovery action without
// waiting for socket-level evidence. A self-report is a note (on the
// detection span, if one is open), not a verdict: only convict records one.
func (n *Node) reportLocalAppFailure() {
	if n.state != StateActive || n.localAppFailed {
		return
	}
	n.localAppFailed = true
	n.tracer.EmitIn(n.detSpan, trace.KindGeneric, n.comp, 0, "local watchdog reports application failure; flagging peer")
	if n.ex != nil {
		n.ex.SendNow()
	}
}

func (n *Node) composeHB() hb.Message {
	m := hb.Message{Role: n.role, PingValid: n.myPingValid, PingOK: n.myPingOK, AppFailed: n.localAppFailed}
	walk := n.snapshot()
	defer n.release(walk)
	for _, rc := range walk {
		c, k := rc.conn, rc.conn.ID()
		if c.State() == tcp.StateClosed {
			n.dropConn(k)
			continue
		}
		if !rc.replicated {
			continue // local-only connection (accepted while running alone)
		}
		m.Conns = append(m.Conns, hb.ConnState{
			RemoteAddr:         k.RemoteAddr,
			RemotePort:         k.RemotePort,
			LocalPort:          k.LocalPort,
			ISS:                c.ISS(),
			IRS:                c.IRS(),
			LastByteReceived:   hb.Wrap32(c.LastByteReceived()),
			LastAckReceived:    hb.Wrap32(c.LastAckReceived()),
			LastAppByteWritten: hb.Wrap32(c.LastAppByteWritten()),
			LastAppByteRead:    hb.Wrap32(c.LastAppByteRead()),
			FINGenerated:       c.FINQueued() && !c.RSTQueued(),
			RSTGenerated:       c.RSTQueued(),
			PeerFINSeen:        c.PeerFINSeen(),
			Established:        c.State() != tcp.StateSynRcvd && c.State() != tcp.StateSynSent,
			FINGated:           c.FINGated(),
		})
	}
	return m
}

func (n *Node) dropConn(id tcp.ConnID) {
	if rc, ok := n.conns[id]; ok {
		n.cancelFINTimers(rc)
		rc.conn.StopHolding()
		delete(n.conns, id)
		i, _ := n.find(rc.key)
		n.ordered = slices.Delete(n.ordered, i, i+1)
	}
	delete(n.announced, id)
	if q, ok := n.held[id]; ok {
		n.mHeldSegs.Add(-int64(len(q)))
		delete(n.held, id)
	}
}

func (n *Node) handleHB(m hb.Message, link hb.LinkID) {
	if n.state != StateActive && n.state != StateNonFT {
		return
	}
	n.noteHBArrival(link)
	// The peer flagged its own application failed (the witness majority
	// convicted it) — no further evidence needed.
	if m.AppFailed && n.state == StateActive {
		n.convict(CriterionSelfReport.verdict())
		return
	}
	// Peer ping arbitration inputs (only meaningful while the IP link is
	// down and the serial link carries the results, §4.3). PingValid is
	// also remembered raw: a peer that is NOT pinging while our IP link
	// is down is oblivious to the outage — the asymmetric-partition
	// criterion's key observation.
	n.peerPingValid = m.PingValid
	if n.ipDown.on() && m.PingValid {
		if n.myPingValid && n.myPingOK && !m.PingOK {
			n.peerPingFails++
			if n.peerPingFails >= pingFailsForVerdict {
				n.convict(CriterionGatewayPing.verdict())
				return
			}
		} else {
			n.peerPingFails = 0
		}
	}

	for i := range m.Conns {
		n.applyPeerConnState(&m.Conns[i], m.Seq)
	}
}

func (n *Node) applyPeerConnState(cs *hb.ConnState, seq uint64) {
	id := cs.Key(n.cfg.ServiceAddr)
	rc, ok := n.conns[id]
	if !ok {
		if n.role == RoleBackup {
			n.adoptFromHB(id, cs)
			rc, ok = n.conns[id]
		}
		if !ok {
			return
		}
	}
	c := rc.conn
	// Both links deliver every heartbeat, the serial copy milliseconds
	// after the IP one (longer when the line is backed up): a report older
	// than the view it would replace is dropped. A rejoined peer restarts
	// its sequence, but peerValid was reset with it (EnableReplication).
	if rc.peerValid && seq < rc.peerSeq {
		return
	}
	fresh := !rc.peerValid || seq > rc.peerSeq
	rc.peerValid, rc.peerSeq = true, seq
	rc.peerLBR = hb.Unwrap32(cs.LastByteReceived, c.LastByteReceived())
	rc.peerLAR = hb.Unwrap32(cs.LastAckReceived, c.LastAckReceived())
	rc.peerAppW = hb.Unwrap32(cs.LastAppByteWritten, c.LastAppByteWritten())
	rc.peerAppR = hb.Unwrap32(cs.LastAppByteRead, c.LastAppByteRead())
	if fresh {
		// The byte-lag criterion compares like with like: the peer's
		// positions against ours as they stand now, when the report
		// arrives, not against wherever ours have moved by the time a
		// detector looks (at 100 Mbit/s a 200 ms-old report is 2.4 MB
		// "behind" a healthy peer). The second copy of a heartbeat says
		// nothing new and does not re-sample.
		rc.peerAppLag = max(c.LastAppByteWritten()-rc.peerAppW, c.LastAppByteRead()-rc.peerAppR)
		rc.peerAt = n.sim.Now()
	}
	rc.peerFIN = cs.FINGenerated
	rc.peerRST = cs.RSTGenerated
	rc.peerEstab = cs.Established

	switch {
	case n.role == RolePrimary:
		n.primaryConsumeConnState(rc)
	case rc.peerLBR > c.LastByteReceived():
		// Missed-byte recovery (Table 1 row 5): the primary has client
		// bytes we never received.
		n.maybeRequestRecovery(rc)
	}
}

// adoptFromHB lets the backup learn about a connection purely from the
// heartbeat: if it parked the SYN it replays it; if it never saw the SYN it
// force-establishes a replica and recovers the stream from the primary.
func (n *Node) adoptFromHB(id tcp.ConnID, cs *hb.ConnState) {
	if _, parked := n.held[id]; parked {
		n.adoptAnnouncement(id, cs.ISS)
		return
	}
	if !cs.Established {
		return
	}
	n.announced[id] = cs.ISS
	c, err := n.tcpStack.CreateReplicaConn(id, cs.ISS, func(c *tcp.Conn) {
		n.setupConn(c)
	})
	if err != nil {
		return
	}
	c.ForceEstablish(cs.IRS)
	n.tracer.Emit(trace.KindByteRecovery, n.comp, "replica %v reconstructed from heartbeat", id)
	n.onEstablished(c)
}

// primaryConsumeConnState reacts to the backup's view of one connection.
func (n *Node) primaryConsumeConnState(rc *repConn) {
	// Release the client bytes the backup has confirmed.
	rc.conn.ReleaseHeld(rc.peerLBR)
	// FIN agreement: if we gated a FIN and the backup has also generated
	// one, this is a normal close — send it (§4.2.2).
	if rc.conn.FINGated() && (rc.peerFIN || rc.peerRST) {
		n.releaseGatedFIN(rc, "backup generated matching FIN")
	}
	// Backup FIN'd but our application has not: suspect the backup's
	// application; give it MaxDelayFIN of evidence time.
	if (rc.peerFIN || rc.peerRST) && !rc.conn.FINQueued() {
		n.armFINDisagreeTimer(rc)
	} else if !(rc.peerFIN || rc.peerRST) {
		rc.finDisagreeTimer.Stop()
		rc.finDisagreeTimer = nil
	}
	// Serve any recovery needs lazily (the backup asks via the control
	// channel).
}

// --- Control channel ---

func (n *Node) handleCtrl(src ip.Addr, srcPort uint16, payload []byte) {
	fromLogger := !n.cfg.LoggerAddr.IsZero() && src == n.cfg.LoggerAddr
	if src != n.cfg.PeerAddr && !fromLogger {
		return
	}
	kind, err := ctrlKind(payload)
	if err != nil {
		return
	}
	switch kind {
	case ctrlConnOpen:
		m, err := decodeConnOpen(payload)
		if err != nil || n.role != RoleBackup {
			return
		}
		id := connKey(n.cfg.ServiceAddr, m.RemoteAddr, m.RemotePort, m.LocalPort)
		n.adoptAnnouncement(id, m.ISS)
	case ctrlRecoveryRequest:
		m, err := decodeRecoveryRequest(payload)
		if err != nil {
			return
		}
		n.serveRecovery(m)
	case ctrlRecoveryData:
		m, err := decodeRecoveryData(payload)
		if err != nil {
			return
		}
		n.applyRecovery(m)
	}
}

func (n *Node) maybeRequestRecovery(rc *repConn) {
	now := n.sim.Now()
	if !rc.lastRecoveryReq.IsZero() && now.Sub(rc.lastRecoveryReq) < 100*time.Millisecond {
		return
	}
	rc.lastRecoveryReq = now
	from, to, id := rc.conn.LastByteReceived(), rc.peerLBR, rc.conn.ID()
	// One auto span per recovery round trip; the request datagram, the
	// peer's serve, and applyRecovery all attach through the ambient
	// context.
	sp := n.tracer.OpenAutoSpan(trace.KindByteRecovery, n.tracer.Ambient(), n.comp,
		"recover missed bytes [%d,%d) for %v", from, to, id)
	defer n.tracer.Activate(sp)()
	n.tracer.EmitValue(trace.KindByteRecovery, n.comp, to-from,
		"requesting missed bytes [%d,%d) for %v", from, to, id)
	n.requestRecovery(rc, n.cfg.PeerAddr, to)
}

// requestLoggerRecovery asks the logger for every logged client byte past
// our current in-order position on this connection.
func (n *Node) requestLoggerRecovery(rc *repConn) {
	from, id := rc.conn.LastByteReceived(), rc.conn.ID()
	sp := n.tracer.OpenAutoSpan(trace.KindByteRecovery, n.tracer.Ambient(), n.comp,
		"recover logged bytes from %d for %v", from, id)
	defer n.tracer.Activate(sp)()
	n.tracer.Emit(trace.KindByteRecovery, n.comp,
		"takeover: requesting logged bytes from %d for %v from logger", from, id)
	n.requestRecovery(rc, n.cfg.LoggerAddr, -1)
}

// requestRecovery asks dst for rc's client bytes from our in-order
// position up to to (negative: everything dst holds).
func (n *Node) requestRecovery(rc *repConn, dst ip.Addr, to int64) {
	id := rc.conn.ID()
	req := recoveryRequestMsg{RemoteAddr: id.RemoteAddr, RemotePort: id.RemotePort, LocalPort: id.LocalPort,
		From: rc.conn.LastByteReceived(), To: to}
	_ = n.host.Netstack().UDPSend(DefaultCtrlPort, dst, DefaultCtrlPort, req.encode())
}

func (n *Node) serveRecovery(m recoveryRequestMsg) {
	id := connKey(n.cfg.ServiceAddr, m.RemoteAddr, m.RemotePort, m.LocalPort)
	if rc, ok := n.conns[id]; ok && rc.conn.Held() != nil {
		held := rc.conn.Held()
		sendRecoveryData(n.host, n.cfg.PeerAddr, m, held, max(m.From, held.Base()), m.end(held.End()))
	}
}

// end is where recovery request m stops in a store holding bytes up to
// held: at To, or at held when To is negative (everything) or beyond it.
func (m recoveryRequestMsg) end(held int64) int64 {
	if m.To < 0 || m.To > held {
		return held
	}
	return m.To
}

// sendRecoveryData answers recovery request m with the bytes [from, to) of
// w, a window of client bytes, one datagram per recoveryChunk, and returns
// how many went out.
func sendRecoveryData(host *cluster.Host, dst ip.Addr, m recoveryRequestMsg, w *tcp.Window, from, to int64) (sent int64) {
	for ; from < to; from += recoveryChunk {
		data, err := w.Slice(from, int(min(recoveryChunk, to-from)))
		if err != nil {
			return sent
		}
		resp := recoveryDataMsg{RemoteAddr: m.RemoteAddr, RemotePort: m.RemotePort, LocalPort: m.LocalPort, Off: from, Data: data}
		if host.Netstack().UDPSend(DefaultCtrlPort, dst, DefaultCtrlPort, resp.encode()) == nil {
			sent++
		}
	}
	return sent
}

func (n *Node) applyRecovery(m recoveryDataMsg) {
	id := connKey(n.cfg.ServiceAddr, m.RemoteAddr, m.RemotePort, m.LocalPort)
	rc, ok := n.conns[id]
	if !ok {
		return
	}
	accepted := rc.conn.InjectStreamBytes(m.Off, m.Data)
	n.mRecovered.Add(int64(accepted))
	if accepted > 0 {
		n.tracer.EmitValue(trace.KindByteRecovery, n.comp, int64(accepted),
			"recovered %d bytes at %d for %v", accepted, m.Off, id)
	}
}

// --- FIN disagreement protocol (§4.2.2) ---

// onLocalCloseSignal fires when the primary's application generates a FIN
// or RST while the gate is armed.
func (n *Node) onLocalCloseSignal(rc *repConn, rst bool) {
	if n.state != StateActive {
		n.releaseGatedFIN(rc, "not replicating")
		return
	}
	c := rc.conn
	kind := "FIN"
	if rst {
		kind = "RST"
	}
	// Communicate the FIN to the peer immediately (paper §4.2.2).
	n.ex.SendNow()
	switch {
	case c.PeerFINSeen():
		// The client closed first; our close is the normal response.
		n.releaseGatedFIN(rc, "client already sent FIN")
	case rc.peerFIN || rc.peerRST:
		n.releaseGatedFIN(rc, "backup already generated "+kind)
	default:
		n.tracer.Emit(trace.KindFINDelayed, n.comp, "%s gated for up to %v on %v", kind, n.cfg.MaxDelayFIN, c.ID())
		rc.finDelayTimer = n.clock.AfterFunc(n.cfg.MaxDelayFIN, func() {
			rc.finDelayTimer = nil
			n.releaseGatedFIN(rc, "MaxDelayFIN expired; assuming local behaviour correct")
		})
		if n.witnessView != nil {
			n.armMajorityVote(rc, true)
		}
	}
}

func (n *Node) releaseGatedFIN(rc *repConn, why string) {
	rc.finDelayTimer.Stop()
	rc.finDelayTimer = nil
	if rc.conn.FINGated() {
		n.tracer.Emit(trace.KindFINReleased, n.comp, "releasing FIN on %v: %s", rc.conn.ID(), why)
		rc.conn.ReleaseFIN()
	}
}

// armFINDisagreeTimer starts the primary's MaxDelayFIN window after the
// backup generated a FIN the primary's application did not. With a witness
// configured, a majority vote resolves the conflict after three heartbeat
// periods instead (§4.2.2's "additional backup servers" proposal).
func (n *Node) armFINDisagreeTimer(rc *repConn) {
	if rc.finDisagreeTimer != nil {
		return
	}
	n.noteEvidence("backup FIN without local FIN on %v", rc.conn.ID())
	n.tracer.Emit(trace.KindFINSuppressed, n.comp,
		"backup FIN without local FIN on %v; watching for %v", rc.conn.ID(), n.cfg.MaxDelayFIN)
	rc.finDisagreeTimer = n.clock.AfterFunc(n.cfg.MaxDelayFIN, func() {
		rc.finDisagreeTimer = nil
		if n.state != StateActive {
			return
		}
		if rc.conn.FINQueued() {
			return // we closed too in the meantime: normal close
		}
		n.convict(CriterionFINTimeout.verdict())
	})
	if n.witnessView != nil {
		n.armMajorityVote(rc, false)
	}
}

// armMajorityVote schedules the witness consultation for a FIN conflict.
// localFIN says which side of the disagreement we are on: true when our
// gated FIN lacks the backup's counterpart, false when the backup FIN'd
// and we did not.
func (n *Node) armMajorityVote(rc *repConn, localFIN bool) {
	if rc.majorityTimer != nil {
		return
	}
	rc.majorityTimer = n.clock.AfterFunc(3*n.cfg.HBPeriod, func() {
		rc.majorityTimer = nil
		n.decideByMajority(rc, localFIN)
	})
}

// decideByMajority resolves a FIN conflict with the witness's vote: two
// replicas agreeing on a close outvote the one that did not produce it,
// and vice versa. A stale or missing witness view falls back to the
// MaxDelayFIN path already armed.
func (n *Node) decideByMajority(rc *repConn, localFIN bool) {
	if n.state != StateActive {
		return
	}
	c := rc.conn
	// The conflict may have dissolved while we waited.
	if localFIN && (!c.FINGated() || rc.peerFIN || rc.peerRST) {
		return
	}
	if !localFIN && c.FINQueued() {
		return
	}
	w, ok := n.witnessView[c.ID()]
	if !ok || n.sim.Since(w.seen) > 4*n.cfg.HBPeriod {
		n.tracer.Emit(trace.KindFINSuppressed, n.comp,
			"majority vote on %v: witness view stale; falling back to MaxDelayFIN", c.ID())
		return
	}
	switch {
	case localFIN && w.closed:
		// We and the witness closed; the backup did not: its
		// application failed (Table 1 row 3B, decided by majority).
		n.convict(CriterionMajorityClose.verdict())
	case localFIN && !w.closed:
		// Two replicas see no close; our FIN signals our own failure.
		n.tracer.EmitIn(n.detSpan, trace.KindGeneric, n.comp, 0, "majority: witness does not corroborate local FIN on %v; reporting self failed", c.ID())
		n.reportLocalAppFailure()
	case !localFIN && w.closed:
		// Backup and witness closed; we did not: our application
		// failed (row 3P, decided by majority instead of lag).
		n.tracer.EmitIn(n.detSpan, trace.KindGeneric, n.comp, 0, "majority: backup and witness closed %v but we did not; reporting self failed", c.ID())
		n.reportLocalAppFailure()
	default:
		// Backup alone produced a FIN: majority says it failed.
		n.convict(CriterionMajorityFIN.verdict())
	}
}

// handleWitnessHB records the witness replica's per-connection verdicts.
func (n *Node) handleWitnessHB(m hb.Message, link hb.LinkID) {
	if m.Role != hb.RoleBackup || n.witnessView == nil {
		return
	}
	now := n.sim.Now()
	for i := range m.Conns {
		cs := &m.Conns[i]
		n.witnessView[cs.Key(n.cfg.ServiceAddr)] = witnessState{closed: cs.FINGenerated || cs.RSTGenerated, seen: now}
	}
}

func (n *Node) cancelFINTimers(rc *repConn) {
	rc.finDelayTimer.Stop()
	rc.finDisagreeTimer.Stop()
	rc.majorityTimer.Stop()
	rc.finDelayTimer, rc.finDisagreeTimer, rc.majorityTimer = nil, nil, nil
}

// --- Recovery actions (Table 1, rightmost column) ---

// milestone is the one place a verdict, a takeover or a non-FT
// transition is recorded: its counter and its event on span move together,
// so the two cannot disagree. A node without a registry (nil counter) or
// without a tracer still records the other half.
func (n *Node) milestone(c *metrics.Counter, span trace.SpanID, kind trace.Kind, format string, args ...any) {
	c.Inc()
	n.tracer.EmitIn(span, kind, n.comp, 0, format, args...)
}

// takeover promotes the backup: output suppression ends and the node
// serves the client connections with the primary's addressing and sequence
// numbers. Faithful to the paper, nothing is transmitted at the instant of
// takeover: the stream restarts at the next retransmission (ours or the
// client's) unless EagerTakeoverRetransmit is set.
func (n *Node) takeover() {
	// The takeover span hangs off the detection span; activating it makes
	// everything below — unsuppression, eager retransmits, logger
	// recovery requests and their asynchronous continuations — part of
	// the failover's causal tree.
	takeSpan := n.tracer.OpenSpan(trace.KindTakeover, n.detSpan, n.comp, "takeover: %s", n.verdict.sentence)
	defer n.tracer.Activate(takeSpan)()
	defer n.tracer.CloseSpan(takeSpan)
	// The paper's third phase starts now: nothing flows until the next
	// retransmission, ours or the client's. The span is closed by the
	// transmit hook at the first segment actually emitted for a service
	// connection.
	n.rwSpan = n.tracer.OpenSpan(trace.KindRetransmitWait, takeSpan, n.comp, "waiting for first retransmission")
	n.watchResume()
	n.leave(StateTakenOver)
	// Detection latency: how long the dead peer was silent before we
	// promoted ourselves — virtual time since the last heartbeat that
	// arrived on any link.
	if n.ex != nil {
		last := n.ex.LastReceived(hb.LinkIP)
		if t := n.ex.LastReceived(hb.LinkSerial); t.After(last) {
			last = t
		}
		if !last.IsZero() {
			n.mTakeoverLat.Observe(n.sim.Now().Sub(last))
		}
	}
	for _, rc := range n.ordered {
		rc.conn.SetSuppressed(false)
		if n.cfg.EagerTakeoverRetransmit {
			rc.conn.ForceRetransmit()
			rc.conn.SendAck()
		}
		// Output-commit recovery (§4.3): client bytes the dead primary
		// acknowledged after our last confirmed position will never be
		// retransmitted by the client; if a logger is deployed, fetch
		// everything it holds past our position.
		if !n.cfg.LoggerAddr.IsZero() {
			n.requestLoggerRecovery(rc)
		}
	}
	n.milestone(n.mTakeovers, n.tracer.Ambient(), trace.KindTakeover, "backup took over %d connection(s): %s", len(n.conns), n.verdict.sentence)
}

// watchResume installs a transmit hook that pins the end of the
// retransmit-wait span to the first segment emitted for a service
// connection after takeover — data, ACK of a client retransmission, or the
// eager-takeover ACK — then uninstalls itself.
func (n *Node) watchResume() {
	if n.rwSpan == 0 || n.tcpStack == nil {
		return
	}
	prev := n.tcpStack.OnTransmit
	n.tcpStack.OnTransmit = func(c *tcp.Conn, seg *tcp.Segment) {
		if prev != nil {
			prev(c, seg)
		}
		if n.rwSpan == 0 {
			return
		}
		n.endRetransmitWait(int64(seg.Seq), "transmission resumed: %v seq=%d len=%d on %v", seg.Flags, seg.Seq, seg.SegLen(), c.ID())
		n.tcpStack.OnTransmit = prev
	}
}

// endRetransmitWait closes the retransmit-wait span, if one is open, with a
// note on how the wait ended.
func (n *Node) endRetransmitWait(value int64, format string, args ...any) {
	if n.rwSpan == 0 {
		return
	}
	n.tracer.EmitIn(n.rwSpan, trace.KindGeneric, n.comp, value, format, args...)
	n.tracer.CloseSpan(n.rwSpan)
	n.rwSpan = 0
}

// FinishTrace closes the node's still-open causal spans at end of run so a
// run that legitimately ends mid-wait (nothing ever retransmitted) is not
// reported as leaked instrumentation. Harnesses call it before checking
// span invariants; it is idempotent.
func (n *Node) FinishTrace() {
	n.endRetransmitWait(0, "run ended while waiting for retransmission")
}

// EnableReplication restores fault tolerance after a failover: a node that
// is serving alone (taken-over backup or non-FT primary) becomes the
// primary of a fresh pair with a repaired peer (typically the rebooted
// machine, reachable at peerAddr over the same wiring). Connections that
// were accepted while running alone stay local-only — a rejoining backup
// cannot reconstruct their history — but every connection accepted from
// now on is fully replicated again. The repaired machine must run a new
// backup-role node (see cluster.Host.Reboot).
func (n *Node) EnableReplication(peerAddr ip.Addr, peerPower *cluster.PowerController) error {
	if !n.setState(StateActive) {
		return fmt.Errorf("sttcp: %s: cannot re-enable replication in state %v", n.host.Name(), n.state)
	}
	n.cfg.PeerAddr = peerAddr
	n.peerPower = peerPower
	n.verdict = Verdict{}
	// A fresh pair means a fresh failover clock: drop the old detection
	// span and resolve a still-pending retransmission wait.
	n.detSpan = 0
	n.endRetransmitWait(0, "replication re-enabled while waiting for retransmission")

	// Existing connections continue unreplicated; only their bookkeeping
	// is reset so stale peer views cannot trigger detectors.
	for _, rc := range n.ordered {
		rc.replicated, rc.peerValid = false, false
	}
	var stale int64
	for _, q := range n.held {
		stale += int64(len(q))
	}
	n.mHeldSegs.Add(-stale)
	n.held = make(map[tcp.ConnID][]heldSegment)
	n.announced = make(map[tcp.ConnID]uint32)

	if err := n.pair(); err != nil {
		return err
	}
	n.tracer.Emit(trace.KindGeneric, n.comp,
		"replication re-enabled as primary with peer %v (%d local-only connection(s) remain)",
		peerAddr, len(n.conns))
	return nil
}

// enterNonFT switches the primary to non-fault-tolerant operation: gates
// open, replication stops, service continues.
func (n *Node) enterNonFT() {
	n.leave(StateNonFT)
	for _, rc := range n.ordered {
		n.releaseGatedFIN(rc, "entering non-fault-tolerant mode")
		rc.conn.StopHolding()
	}
	n.milestone(n.mNonFT, n.tracer.Ambient(), trace.KindNonFTMode, "primary in non-fault-tolerant mode: %s", n.verdict.sentence)
}
