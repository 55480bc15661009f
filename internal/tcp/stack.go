package tcp

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stack-level errors.
var (
	ErrListenerExists = errors.New("tcp: listener already bound")
	ErrConnExists     = errors.New("tcp: connection already exists")
	ErrNoPorts        = errors.New("tcp: ephemeral ports exhausted")
)

// ConnID identifies a connection by its 4-tuple.
type ConnID struct {
	LocalAddr  ip.Addr
	LocalPort  uint16
	RemoteAddr ip.Addr
	RemotePort uint16
}

// String renders the 4-tuple.
func (id ConnID) String() string {
	var buf [len("255.255.255.255:65535<->255.255.255.255:65535")]byte
	b := appendEndpoint(buf[:0], id.LocalAddr, id.LocalPort)
	b = append(b, "<->"...)
	b = appendEndpoint(b, id.RemoteAddr, id.RemotePort)
	return string(b)
}

// appendEndpoint appends "a.b.c.d:port".
func appendEndpoint(b []byte, addr ip.Addr, port uint16) []byte {
	for i, octet := range addr {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(port), 10)
}

// The retransmission timeout starts at initialRTO, before the first RTT
// sample, is never set below MinRTO (which also paces the persist probes),
// and is clamped to maxRTO however far it backs off (RFC 6298). A segment
// retransmitted more than maxRetransmits times gives the connection up.
const (
	initialRTO = time.Second
	// MinRTO is the RTO floor: after a takeover the backup's retransmission
	// backs off from it, which sets Demo 2's residual stall.
	MinRTO         = 200 * time.Millisecond
	maxRTO         = 60 * time.Second
	maxRetransmits = 15
)

// The other fixed timings and sizes of every stack: TIME_WAIT lasts 2 × msl,
// the delayed-acknowledgement timer is ackDelay, and the send buffer holds
// sendBufferSize bytes (it also caps the congestion window).
const (
	msl            = 5 * time.Second
	ackDelay       = 40 * time.Millisecond
	sendBufferSize = 256 << 10
)

// Options select a stack's TCP personality. Zero values select defaults.
type Options struct {
	// MSS is the largest segment payload offered (DefaultMSS if 0).
	MSS int
	// RecvBufferSize is the receive buffer, and so the largest window
	// advertised (256 KiB if 0).
	RecvBufferSize int

	// Nagle enables RFC 896 small-segment coalescing: a sub-MSS segment
	// is held back while unacknowledged data is in flight.
	Nagle bool
	// DelayedACK enables RFC 1122 acknowledgement delay: a lone in-order
	// data segment is acknowledged after 40 ms or when a second segment
	// arrives, whichever is first. Out-of-order segments are always
	// acknowledged immediately (duplicate acks drive fast retransmit).
	DelayedACK bool
}

func (o *Options) fillDefaults() {
	if o.MSS == 0 {
		o.MSS = DefaultMSS
	}
	if o.RecvBufferSize == 0 {
		o.RecvBufferSize = 256 << 10
	}
}

// Listener accepts inbound connections on one (address, port) pair.
type Listener struct {
	stack *Stack
	addr  ip.Addr
	port  uint16

	// ISNProvider, when non-nil, supplies the initial send sequence
	// number for a new passive connection. The ST-TCP backup installs a
	// provider that returns the primary's announced ISN (paper §2: the
	// backup "changes its initial sequence number to match that of the
	// primary").
	ISNProvider func(id ConnID) (uint32, bool)

	// OnSynRcvd fires when a SYN creates an embryonic connection; the
	// ST-TCP primary uses it to announce the new connection to the
	// backup.
	OnSynRcvd func(*Conn)

	// OnEstablished fires when a passive connection completes the
	// handshake; it is the accept callback.
	OnEstablished func(*Conn)

	// NewConnSetup, when non-nil, runs on every connection the listener
	// creates, before any segment processing; replication layers use it
	// to install taps and suppression.
	NewConnSetup func(*Conn)
}

// Addr returns the listening address.
func (l *Listener) Addr() ip.Addr { return l.addr }

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Stack is a host's TCP layer: it owns the connection table, demultiplexes
// inbound segments, and emits outbound segments through the netstack.
type Stack struct {
	sim    *sim.Simulator
	clock  *sim.Clock // the host's: every connection timer and notification arms here
	ns     *netstack.Stack
	name   string
	opts   Options
	tracer *trace.Recorder

	conns     map[ConnID]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16

	// OnTransmit, when non-nil, observes every segment actually emitted.
	// The ST-TCP takeover logic uses it to pin down the instant service
	// transmission resumes after a takeover. The segment (including its
	// Payload, which aliases the connection's send buffer) is valid only
	// for the duration of the call; observers must copy anything they
	// keep.
	OnTransmit func(c *Conn, seg *Segment)

	// SegmentFilter, when non-nil, sees every inbound segment before
	// demux and may consume it by returning false. The ST-TCP backup
	// uses it to hold segments for connections whose ISN announcement
	// has not yet arrived. seg is the stack's and its Payload the received
	// frame's, valid only during the call: a filter that parks one clones it.
	SegmentFilter func(pkt ip.Packet, seg *Segment) bool

	// Emitted counts segments actually transmitted.
	Emitted int64
	// Received counts segments accepted by demux.
	Received int64

	// Metric instruments; nil (no-op) when the stack was built without a
	// registry. mRetransmits moves only in Conn.noteRetransmit, together
	// with the KindRetransmit event.
	mSent        *metrics.Counter
	mReceived    *metrics.Counter
	mSuppressed  *metrics.Counter
	mRetransmits *metrics.Counter
	mBackoffs    *metrics.Counter
	mCwnd        *metrics.Gauge

	// encBuf is the reusable wire-encoding scratch for outbound segments.
	// The simulation is single-threaded and every hop below emit copies
	// synchronously (netstack into its own scratch, the link into a pooled
	// frame), so one buffer per stack suffices and the per-segment
	// make([]byte) disappears.
	encBuf []byte

	// segFree is the LIFO free list every Segment this stack builds or
	// decodes comes from: the hooks take it by pointer through a function
	// value, so a local would be a heap object per segment. A list, not one
	// scratch struct: receive → ACK nests, and a hook may re-enter.
	segFree []*Segment
}

// takeSegment returns a Segment for the caller to overwrite whole.
func (st *Stack) takeSegment() *Segment {
	n := len(st.segFree)
	if n == 0 {
		return new(Segment)
	}
	seg := st.segFree[n-1]
	st.segFree = st.segFree[:n-1]
	return seg
}

// releaseSegment takes seg back zeroed — or, in the race build, poisoned, so
// that a hook which kept the pointer reads nonsense, not the next segment.
func (st *Stack) releaseSegment(seg *Segment) {
	*seg = Segment{}
	if netem.PoisonReleased {
		*seg = Segment{SrcPort: 0xDBDB, DstPort: 0xDBDB, Seq: 0xDBDBDBDB, Flags: 0xDB, Window: 0xDBDB}
	}
	st.segFree = append(st.segFree, seg) //sttcp:allow hotpathalloc amortized: the list grows to the deepest nesting seen, two or three
}

// NewStack creates a TCP layer on top of ns and registers itself as the
// netstack's TCP handler. Its connection timers arm on the host's clock.
// reg may be nil, in which case the stack keeps only its legacy public
// counters.
func NewStack(clock *sim.Clock, ns *netstack.Stack, name string, opts Options, tracer *trace.Recorder, reg *metrics.Registry) *Stack {
	opts.fillDefaults()
	st := &Stack{
		sim:       clock.Sim(),
		clock:     clock,
		ns:        ns,
		name:      name,
		opts:      opts,
		tracer:    tracer,
		conns:     make(map[ConnID]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  49152,
	}
	comp := name + "/tcp"
	st.mSent = reg.Counter(comp, "tcp.segments_sent")
	st.mReceived = reg.Counter(comp, "tcp.segments_received")
	st.mSuppressed = reg.Counter(comp, "tcp.segments_suppressed")
	st.mRetransmits = reg.Counter(comp, "tcp.retransmits")
	st.mBackoffs = reg.Counter(comp, "tcp.rto_backoffs")
	st.mCwnd = reg.Gauge(comp, "tcp.cwnd_bytes")
	ns.RegisterTCP(st.handlePacket)
	return st
}

// Name returns the stack's trace name.
func (st *Stack) Name() string { return st.name }

// Options returns the stack's effective options.
func (st *Stack) Options() Options { return st.opts }

// Netstack returns the underlying IP stack.
func (st *Stack) Netstack() *netstack.Stack { return st.ns }

// Sim returns the simulator the stack runs on.
func (st *Stack) Sim() *sim.Simulator { return st.sim }

// Conns returns a snapshot of live connections.
func (st *Stack) Conns() []*Conn {
	out := make([]*Conn, 0, len(st.conns))
	for _, c := range st.conns {
		out = append(out, c)
	}
	return out
}

// Lookup finds the connection with the given 4-tuple.
func (st *Stack) Lookup(id ConnID) (*Conn, bool) {
	c, ok := st.conns[id]
	return c, ok
}

// Listen binds a listener to (addr, port). addr may be an alias such as the
// shared serviceIP.
func (st *Stack) Listen(addr ip.Addr, port uint16) (*Listener, error) {
	if _, ok := st.listeners[port]; ok {
		return nil, fmt.Errorf("%w: port %d", ErrListenerExists, port)
	}
	l := &Listener{stack: st, addr: addr, port: port}
	st.listeners[port] = l
	return l, nil
}

// Close unbinds the listener.
func (l *Listener) Close() { delete(l.stack.listeners, l.port) }

// Dial opens an active connection from local (the stack's primary address
// if zero) to remote:remotePort.
func (st *Stack) Dial(local ip.Addr, remote ip.Addr, remotePort uint16) (*Conn, error) {
	if local.IsZero() {
		local = st.ns.Addr()
	}
	port, err := st.allocPort(local, remote, remotePort)
	if err != nil {
		return nil, err
	}
	id := ConnID{LocalAddr: local, LocalPort: port, RemoteAddr: remote, RemotePort: remotePort}
	c := st.newConn(id)
	c.iss = st.chooseISN()
	st.conns[id] = c
	c.connect()
	return c, nil
}

func (st *Stack) allocPort(local, remote ip.Addr, remotePort uint16) (uint16, error) {
	for i := 0; i < 16384; i++ {
		p := st.nextPort
		st.nextPort++
		if st.nextPort == 0 {
			st.nextPort = 49152
		}
		id := ConnID{LocalAddr: local, LocalPort: p, RemoteAddr: remote, RemotePort: remotePort}
		if _, used := st.conns[id]; !used {
			if _, listening := st.listeners[p]; !listening {
				return p, nil
			}
		}
	}
	return 0, ErrNoPorts
}

func (st *Stack) chooseISN() uint32 {
	return st.sim.Rand().Uint32()
}

// newRTOTimer builds a connection's retransmission timer on the host clock.
// It is a variable so a test can seed the defect dead-host-silence exists to
// catch: the timer on the raw simulator, where a crash does not stop it.
var newRTOTimer = func(st *Stack, fn func()) *sim.Timer { return st.clock.NewTimer(fn) }

func (st *Stack) newConn(id ConnID) *Conn {
	c := &Conn{
		stack: st,
		id:    id,
		mss:   st.opts.MSS,
		sb:    NewWindow(sendBufferSize),
		rb:    newRecvBuffer(st.opts.RecvBufferSize),
		rto:   initialRTO,
	}
	// All per-connection timers and notification callbacks are bound here,
	// once, so the per-segment path re-arms and re-posts without allocating.
	c.retransTimer = newRTOTimer(st, c.onRetransTimeout)
	c.persistTimer = st.clock.NewTimer(c.onPersistTimeout)
	c.timeWaitTimer = st.clock.NewTimer(c.onTimeWaitExpired)
	c.delAckTimer = st.clock.NewTimer(c.onDelAckTimeout)
	c.readableFn = c.deliverReadable
	c.writableFn = c.deliverWritable
	c.resetCongestion()
	return c
}

// CreateReplicaConn builds a passive connection with a pinned ISN and
// applies setup before any segment is processed; the ST-TCP backup uses it
// when replaying a held SYN would be awkward (e.g. reconstructing state
// from a heartbeat after the announcement datagram was lost).
func (st *Stack) CreateReplicaConn(id ConnID, iss uint32, setup func(*Conn)) (*Conn, error) {
	if _, ok := st.conns[id]; ok {
		return nil, fmt.Errorf("%w: %v", ErrConnExists, id)
	}
	c := st.newConn(id)
	c.iss = iss
	if setup != nil {
		setup(c)
	}
	st.conns[id] = c
	return c, nil
}

func (st *Stack) removeConn(c *Conn) {
	if cur, ok := st.conns[c.id]; ok && cur == c {
		delete(st.conns, c.id)
	}
}

func (st *Stack) listenerFor(addr ip.Addr, port uint16) *Listener {
	l, ok := st.listeners[port]
	if !ok {
		return nil
	}
	if !l.addr.IsZero() && l.addr != addr {
		return nil
	}
	return l
}

// noteEmit is the per-segment transmit bookkeeping shared by emit and
// sendRSTFor. It runs once per simulated segment on every host, so it is
// annotated hotpath (enforced by `sttcp vet`) and asserted zero-alloc by
// TestSegmentBookkeepingDoesNotAllocate.
//
//sttcp:hotpath
func (st *Stack) noteEmit() {
	st.Emitted++
	st.mSent.Inc()
}

// noteReceived is the per-segment receive bookkeeping; same contract as
// noteEmit.
//
//sttcp:hotpath
func (st *Stack) noteReceived() {
	st.Received++
	st.mReceived.Inc()
}

// emit transmits a segment for conn through the IP layer.
func (st *Stack) emit(c *Conn, seg *Segment) {
	st.noteEmit()
	if st.OnTransmit != nil {
		st.OnTransmit(c, seg)
	}
	if st.tracer.Detail() {
		// Every transmission starts a segment-journey span; activating it
		// makes the link/switch hops and the remote receive — scheduled
		// asynchronously — attach to it as one causal tree.
		sp := st.tracer.OpenAutoSpan(trace.KindSegmentJourney, st.tracer.Ambient(),
			st.name+"/tcp", "%v seq=%d len=%d", seg.Flags, seg.Seq, seg.SegLen())
		st.tracer.EmitIn(sp, trace.KindSegmentTX, st.name+"/tcp", int64(seg.Seq),
			"tx %v seq=%d ack=%d len=%d", seg.Flags, seg.Seq, seg.Ack, seg.SegLen())
		defer st.tracer.Activate(sp)()
	}
	st.encBuf = seg.AppendEncode(st.encBuf[:0], c.id.LocalAddr, c.id.RemoteAddr)
	_ = st.ns.SendIPFrom(c.id.LocalAddr, c.id.RemoteAddr, ip.ProtoTCP, st.encBuf)
}

func (st *Stack) noteSuppressed(seg *Segment) {
	st.mSuppressed.Inc()
	if st.tracer.Detail() {
		st.tracer.EmitValue(trace.KindSegmentSuppressed, st.name+"/tcp", int64(seg.Seq),
			"suppressed %v seq=%d len=%d", seg.Flags, seg.Seq, seg.SegLen())
	}
}

// handlePacket demultiplexes one inbound TCP packet.
func (st *Stack) handlePacket(pkt ip.Packet) {
	seg := st.takeSegment()
	var err error
	if *seg, err = Decode(pkt.Src, pkt.Dst, pkt.Payload); err == nil {
		st.HandleSegment(pkt, seg)
	}
	st.releaseSegment(seg)
}

// HandleSegment runs demux on an already-decoded segment. It is exported
// so the ST-TCP backup can re-inject segments it held back. seg and its
// Payload are borrowed for the call: the receive buffer copies what it keeps.
func (st *Stack) HandleSegment(pkt ip.Packet, seg *Segment) {
	if st.SegmentFilter != nil && !st.SegmentFilter(pkt, seg) {
		return
	}
	st.noteReceived()
	if st.tracer.Detail() {
		st.tracer.EmitValue(trace.KindSegmentRX, st.name+"/tcp", int64(seg.Seq),
			"rx %v seq=%d ack=%d len=%d", seg.Flags, seg.Seq, seg.Ack, seg.SegLen())
	}
	id := ConnID{
		LocalAddr:  pkt.Dst,
		LocalPort:  seg.DstPort,
		RemoteAddr: pkt.Src,
		RemotePort: seg.SrcPort,
	}
	if c, ok := st.conns[id]; ok {
		c.handleSegment(seg)
		return
	}
	if seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) {
		if l := st.listenerFor(pkt.Dst, seg.DstPort); l != nil {
			st.acceptNew(l, id, seg)
			return
		}
	}
	// Out of the blue: reset, unless it was itself a RST.
	if !seg.Flags.Has(FlagRST) {
		st.sendRSTFor(pkt, seg)
	}
}

func (st *Stack) acceptNew(l *Listener, id ConnID, seg *Segment) {
	c := st.newConn(id)
	if l.ISNProvider != nil {
		if isn, ok := l.ISNProvider(id); ok {
			c.iss = isn
		} else {
			c.iss = st.chooseISN()
		}
	} else {
		c.iss = st.chooseISN()
	}
	if l.NewConnSetup != nil {
		l.NewConnSetup(c)
	}
	st.conns[id] = c
	c.acceptSYN(seg)
	if l.OnSynRcvd != nil {
		l.OnSynRcvd(c)
	}
}

// sendRSTFor answers an out-of-the-blue segment with a RST, as a freshly
// rebooted server would — the visible failure mode ST-TCP exists to mask.
func (st *Stack) sendRSTFor(pkt ip.Packet, seg *Segment) {
	rst := Segment{
		SrcPort: seg.DstPort,
		DstPort: seg.SrcPort,
		Flags:   FlagRST | FlagACK,
		Ack:     seg.Seq + uint32(seg.SegLen()),
	}
	if seg.Flags.Has(FlagACK) {
		rst.Seq = seg.Ack
		rst.Flags = FlagRST
	}
	st.noteEmit()
	st.encBuf = rst.AppendEncode(st.encBuf[:0], pkt.Dst, pkt.Src)
	_ = st.ns.SendIPFrom(pkt.Dst, pkt.Src, ip.ProtoTCP, st.encBuf)
}
