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
// and the send buffer holds sendBufferSize bytes (it also caps the
// congestion window). Every stack offers DefaultMSS and acknowledges each
// segment at once.
const (
	msl            = 5 * time.Second
	sendBufferSize = 256 << 10
)

// DefaultRecvBufferSize is the receive buffer of a stack built with zero
// Options.
const DefaultRecvBufferSize = 256 << 10

// Options size a stack. Zero values select defaults.
type Options struct {
	// RecvBufferSize is the receive buffer, and so the largest window
	// advertised (DefaultRecvBufferSize if 0).
	RecvBufferSize int
}

func (o *Options) fillDefaults() {
	if o.RecvBufferSize == 0 {
		o.RecvBufferSize = DefaultRecvBufferSize
	}
}

// Listener accepts inbound connections on one (address, port) pair.
type Listener struct {
	addr ip.Addr

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

// Sim returns the simulator the stack runs on.
func (st *Stack) Sim() *sim.Simulator { return st.sim }

// Crash lets go of every connection's buffers once the host is dead:
// nothing runs on it again, and a reboot builds a new stack. Each window is
// released to its end, so a Slice of it reports ErrReleased, and its
// storage dropped; so are the bytes waiting beyond a hole.
func (st *Stack) Crash() {
	for _, c := range st.conns {
		for _, w := range []*Window{c.sb, &c.rb.win} {
			w.Release(w.End())
			w.drop()
		}
		c.rb.ooo, c.rb.oooHeld = nil, 0
	}
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
	l := &Listener{addr: addr}
	st.listeners[port] = l
	return l, nil
}

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
		mss:   DefaultMSS,
		sb:    NewWindow(sendBufferSize),
		rb:    newRecvBuffer(st.opts.RecvBufferSize),
		rto:   initialRTO,
	}
	// All per-connection timers and notification callbacks are bound here,
	// once, so the per-segment path re-arms and re-posts without allocating.
	c.retransTimer = newRTOTimer(st, c.onRetransTimeout)
	c.persistTimer = st.clock.NewTimer(c.onPersistTimeout)
	c.timeWaitTimer = st.clock.NewTimer(c.onTimeWaitExpired)
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
	st.send(seg, c.id.LocalAddr, c.id.RemoteAddr)
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
	st.send(&rst, pkt.Dst, pkt.Src)
}

// send writes seg into a frame from the netstack and transmits it.
func (st *Stack) send(seg *Segment, src, dst ip.Addr) {
	frame := seg.AppendEncode(st.ns.NewFrame(), src, dst)
	_ = st.ns.SendFrame(src, dst, ip.ProtoTCP, frame)
}
