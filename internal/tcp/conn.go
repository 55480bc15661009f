package tcp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is a TCP connection state.
type State int

// Connection states (RFC 793). LISTEN lives in Listener, not Conn.
const (
	StateSynSent State = iota + 1
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
	StateClosed
)

var stateNames = map[State]string{
	StateSynSent:     "SYN_SENT",
	StateSynRcvd:     "SYN_RCVD",
	StateEstablished: "ESTABLISHED",
	StateFinWait1:    "FIN_WAIT_1",
	StateFinWait2:    "FIN_WAIT_2",
	StateCloseWait:   "CLOSE_WAIT",
	StateClosing:     "CLOSING",
	StateLastAck:     "LAST_ACK",
	StateTimeWait:    "TIME_WAIT",
	StateClosed:      "CLOSED",
}

// String names the state.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Connection-level errors delivered through OnClose.
var (
	ErrReset        = errors.New("tcp: connection reset by peer")
	ErrTimeout      = errors.New("tcp: retransmission timeout")
	ErrClosed       = errors.New("tcp: connection closed")
	ErrNotConnected = errors.New("tcp: not connected")
	ErrWriteClosed  = errors.New("tcp: write side closed")
)

// Conn is one TCP connection. All methods must be called on the simulation
// event loop. Reads and writes are non-blocking: Read drains what is
// buffered, Write accepts what fits, and the OnReadable/OnWritable
// callbacks signal progress.
type Conn struct {
	stack *Stack
	id    ConnID
	state State

	iss uint32 // initial send sequence number (SYN occupies iss)
	irs uint32 // initial receive sequence number

	sb *Window
	rb *recvBuffer

	sndUna int64 // oldest unacked stream offset
	sndNxt int64 // next stream offset to send
	sndMax int64 // highest offset ever sent (sndNxt may rewind below it)
	sndWnd int   // peer's advertised window
	mss    int

	// Congestion control (NewReno-style).
	cwnd         int
	ssthresh     int
	dupAcks      int
	fastRecovery bool
	recoverOff   int64 // sndNxt when fast recovery began

	// RTT estimation (RFC 6298).
	srtt, rttvar time.Duration
	rto          time.Duration
	backoff      uint
	rtStart      time.Duration // sim.Elapsed() when the timed segment left
	rtOffset     int64
	rtPending    bool

	// Timers are reusable sim.Timers bound once at construction, so the
	// steady-state data path re-arms them without allocating (the RTO
	// timer alone re-arms once per ack'd flight).
	retransTimer  *sim.Timer
	persistTimer  *sim.Timer
	timeWaitTimer *sim.Timer
	persistShift  uint
	retransCount  int

	// FIN bookkeeping. finOff is the stream offset the FIN occupies
	// (one past the last data byte).
	finQueued bool
	finOff    int64
	finSent   bool
	finAcked  bool

	peerFINSeen bool
	peerFINOff  int64

	// ST-TCP hooks.
	suppressed    bool
	wasReplica    bool
	finGate       bool
	finGateFired  bool
	rstQueued     bool
	closeObserver func(rst bool)
	onCloseSignal func(rst bool)
	ghostAck      int64 // highest ack beyond sndNxt seen while suppressed

	// SuppressedSegments counts segments generated but not emitted while
	// suppressed (the backup's discarded output, paper §2).
	SuppressedSegments int64
	// Retransmits counts retransmitted segments.
	Retransmits int64

	// Application callbacks; any may be nil.
	OnEstablished func()
	OnReadable    func()
	OnWritable    func()
	OnClose       func(err error)

	closeErr        error
	closeNotified   bool
	readablePending bool
	writablePending bool

	// Prebound notification callbacks, allocated once in newConn so
	// notifyReadable/notifyWritable can Post them without building a
	// closure per delivery.
	readableFn func()
	writableFn func()
}

// ID returns the connection 4-tuple.
func (c *Conn) ID() ConnID { return c.id }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// ISS returns the initial send sequence number.
func (c *Conn) ISS() uint32 { return c.iss }

// IRS returns the initial receive sequence number.
func (c *Conn) IRS() uint32 { return c.irs }

// RTO returns the current retransmission timeout including backoff,
// clamped to the stack's maximum.
func (c *Conn) RTO() time.Duration {
	rto := c.rto << c.backoff
	if rto > maxRTO || rto <= 0 {
		return maxRTO
	}
	return rto
}

// --- ST-TCP introspection (the heartbeat fields of paper §3) ---

// LastByteReceived returns the stream offset one past the last in-order
// byte received from the peer.
func (c *Conn) LastByteReceived() int64 { return c.rb.next }

// LastAckReceived returns the highest stream offset acknowledged by the
// peer.
func (c *Conn) LastAckReceived() int64 { return c.sndUna }

// LastAppByteWritten returns the stream offset one past the last byte the
// application wrote to the send buffer.
func (c *Conn) LastAppByteWritten() int64 { return c.sb.End() }

// LastAppByteRead returns the stream offset one past the last byte the
// application read from the receive buffer.
func (c *Conn) LastAppByteRead() int64 { return c.rb.readOff }

// FINQueued reports whether the local side has generated a FIN (the
// heartbeat's FIN flag).
func (c *Conn) FINQueued() bool { return c.finQueued }

// PeerFINSeen reports whether the peer's FIN has been received in order.
func (c *Conn) PeerFINSeen() bool { return c.peerFINSeen }

// Buffered reports unread in-order receive bytes.
func (c *Conn) Buffered() int { return int(c.rb.win.End() - c.rb.readOff) }

// --- ST-TCP control hooks ---

// SetSuppressed switches output suppression. A suppressed connection
// computes and sequences every segment it would send but discards it — the
// ST-TCP backup's behaviour. Unsuppressing does not by itself transmit
// anything; the next timer or input event does (the paper's failover delay
// until the next retransmission).
func (c *Conn) SetSuppressed(v bool) {
	c.suppressed = v
	if v {
		// Once a replica, always ghost-ack capable: even after
		// takeover the client may acknowledge bytes only the dead
		// primary transmitted, which the deterministic replica will
		// produce shortly.
		c.wasReplica = true
	}
}

// Hold makes the receive buffer the ST-TCP primary's extra receive buffer:
// every byte received from now on stays, after the application has read
// it, until ReleaseHeld reports it, and at most capacity unreported bytes
// are accepted (the advertised window closes instead). unreported counts
// them.
func (c *Conn) Hold(capacity int, unreported *metrics.Gauge) {
	b := c.rb
	b.hold, b.reported, b.unreported = capacity, b.win.End(), unreported
	b.win.cap = max(b.size, capacity)
}

// ReleaseHeld reports the held bytes below upTo.
func (c *Conn) ReleaseHeld(upTo int64) { c.releaseHeld(upTo, c.rb.hold) }

// StopHolding returns the receive buffer to plain TCP.
func (c *Conn) StopHolding() { c.releaseHeld(c.rb.win.End(), 0) }

// releaseHeld reports the held bytes below upTo, clamped to what arrived,
// and goes on holding at most hold bytes; a release that reopens a closed
// window tells the peer.
func (c *Conn) releaseHeld(upTo int64, hold int) {
	b := c.rb
	if b.hold == 0 {
		return
	}
	before := b.window()
	if upTo = min(upTo, b.win.End()); upTo > b.reported {
		b.unreported.Add(b.reported - upTo)
		b.reported = upTo
	}
	b.hold = hold
	b.release()
	c.windowOpened(before)
}

// Held returns the held received bytes — read or not, from the oldest
// unreported or unread one on — while Hold is in force, else nil. A Slice
// of it aliases the receive buffer.
func (c *Conn) Held() *Window {
	if c.rb.hold == 0 {
		return nil
	}
	return &c.rb.win
}

// windowOpened sends a window update when the receive window, which was
// before, has just reopened to a segment or more.
func (c *Conn) windowOpened(before int) {
	if before < c.mss && c.rb.window() >= c.mss {
		c.sendControl(FlagACK)
	}
}

// SetFINGate enables the MaxDelayFIN mechanism: when the application
// closes (or aborts) the connection, the FIN (or RST) is generated and
// visible via FINQueued but not transmitted until ReleaseFIN. onSignal is
// invoked once when the close signal is first gated.
func (c *Conn) SetFINGate(onSignal func(rst bool)) {
	c.finGate = true
	c.onCloseSignal = onSignal
}

// SetCloseSignalObserver registers a callback invoked once when the local
// application generates a FIN or RST, without gating it. The ST-TCP backup
// uses it to flash its FIN to the primary through an immediate heartbeat
// (paper §4.2.2) while the segment itself stays suppressed.
func (c *Conn) SetCloseSignalObserver(fn func(rst bool)) { c.closeObserver = fn }

func (c *Conn) notifyCloseSignal(rst bool) {
	if c.closeObserver != nil {
		fn := c.closeObserver
		c.closeObserver = nil
		fn(rst)
	}
}

// ReleaseFIN opens the FIN gate, transmitting a gated FIN (or RST).
func (c *Conn) ReleaseFIN() {
	if !c.finGate {
		return
	}
	c.finGate = false
	if c.rstQueued {
		c.sendRST()
		c.teardown(ErrReset)
		return
	}
	c.maybeSend()
}

// RSTQueued reports whether the gated close signal is a RST rather than a
// FIN.
func (c *Conn) RSTQueued() bool { return c.rstQueued }

// ForceEstablish initialises a replica connection directly into
// ESTABLISHED from replicated metadata, for the case where the backup
// learned of a connection only through the heartbeat (it missed the SYN and
// the announcement): stream positions start at zero and the missed bytes
// are fetched through the recovery protocol.
func (c *Conn) ForceEstablish(irs uint32) {
	c.irs = irs
	c.sndUna, c.sndNxt = 0, 0
	c.resetCongestion()
	c.setState(StateEstablished)
	c.trace(trace.KindConnEstablished, "replica force-established")
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
}

// FINGated reports whether a generated FIN is currently being withheld.
func (c *Conn) FINGated() bool { return c.finGate && c.finQueued }

// ForceRetransmit immediately retransmits from the oldest unacked byte and
// resets the backoff — the "eager takeover" extension measured by
// `sttcp demo -demo demo2 -eager` (the paper's ST-TCP instead waits for the next
// retransmission timer).
func (c *Conn) ForceRetransmit() {
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	c.backoff = 0
	c.retransmit()
	c.armRetransTimer()
}

// SendAck emits an immediate pure ACK (window update).
func (c *Conn) SendAck() { c.sendControl(FlagACK) }

// InjectStreamBytes inserts peer-stream bytes obtained out of band (the
// ST-TCP missed-byte recovery of Table 1 row 5) as if they had arrived in a
// segment. It returns the number of in-order bytes newly accepted.
func (c *Conn) InjectStreamBytes(off int64, data []byte) int {
	n := c.rb.accept(off, data)
	if n > 0 {
		c.notifyReadable()
	}
	return n
}

// --- Application API ---

// Read copies buffered in-order data into p. It returns 0, nil when no
// data is available, and 0, io-style error once the stream has ended.
func (c *Conn) Read(p []byte) (int, error) {
	before := c.rb.window()
	if n := c.rb.read(p); n > 0 {
		c.windowOpened(before)
		return n, nil
	}
	return 0, c.readErr()
}

// Peek returns up to n buffered in-order bytes in place, without consuming
// them, as at most two spans in stream order: second is empty unless the
// bytes cross the end of the receive buffer's ring. The spans alias the
// receive buffer until Discard or the next call that moves the stream.
// With no bytes buffered it returns what Read would: nil, or the error
// that ended the stream.
//
//sttcp:hotpath
func (c *Conn) Peek(n int) (first, second []byte, err error) {
	if first, second = c.rb.peek(n); len(first) > 0 {
		return first, second, nil
	}
	return nil, nil, c.readErr()
}

// readErr is what a read that finds nothing buffered returns: the error
// that ended the stream, or nil while it goes on.
//
//sttcp:hotpath
func (c *Conn) readErr() error {
	if c.peerFINSeen && c.rb.next >= c.peerFINOff {
		return ErrClosed
	}
	if c.state == StateClosed {
		if c.closeErr != nil {
			return c.closeErr
		}
		return ErrClosed
	}
	return nil
}

// Discard consumes the n oldest buffered bytes (at most Buffered) as a
// Read of them would: they are released, unless Hold keeps them until
// they are reported, and a receive window they reopen is advertised.
//
//sttcp:hotpath
func (c *Conn) Discard(n int) {
	if n = min(n, c.Buffered()); n <= 0 {
		return
	}
	before := c.rb.window()
	c.rb.discard(n)
	c.windowOpened(before)
}

// Write appends p to the send buffer, returning how many bytes were
// accepted (possibly 0 when the buffer is full): a WriteFunc that copies.
func (c *Conn) Write(p []byte) (int, error) {
	return c.WriteFunc(len(p), func(first, second []byte) {
		copy(second, p[copy(first, p):])
	})
}

// WriteFunc appends n bytes to the send buffer in place, or as many as
// fit: fill is handed the at most two spans of the buffer that hold the
// bytes accepted, in stream order, and must write every byte of them
// before it returns; then they are sent as written bytes are. It returns
// how many bytes it accepted, calling fill only when that is not 0.
func (c *Conn) WriteFunc(n int, fill func(first, second []byte)) (int, error) {
	if c.finQueued {
		return 0, ErrWriteClosed
	}
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynRcvd, StateSynSent:
	default:
		return 0, fmt.Errorf("%w: state %v", ErrNotConnected, c.state)
	}
	if n = min(n, c.sb.Free()); n <= 0 {
		return 0, nil
	}
	fill(c.sb.reserve(n))
	c.maybeSend()
	return n, nil
}

// WriteSpace reports how many bytes Write would currently accept.
func (c *Conn) WriteSpace() int { return c.sb.Free() }

// Close closes the write side: a FIN is queued after any buffered data.
// The read side keeps delivering data already received.
func (c *Conn) Close() error {
	if c.finQueued || c.state == StateClosed {
		return nil
	}
	switch c.state {
	case StateEstablished, StateSynRcvd, StateCloseWait, StateSynSent:
	default:
		return fmt.Errorf("%w: close in state %v", ErrClosed, c.state)
	}
	c.finQueued = true
	c.finOff = c.sb.End()
	switch c.state {
	case StateEstablished, StateSynRcvd, StateSynSent:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	}
	c.notifyCloseSignal(false)
	if c.finGate && !c.finGateFired {
		c.finGateFired = true
		if c.onCloseSignal != nil {
			c.onCloseSignal(false)
		}
	}
	c.maybeSend()
	return nil
}

// Abort sends a RST (subject to suppression and the FIN gate) and closes
// the connection immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.notifyCloseSignal(true)
	if c.finGate && !c.finGateFired {
		// Gate the RST exactly like a FIN (Table 1 row 3 treats
		// FIN/RST uniformly); the connection stays alive until the
		// replication layer decides.
		c.finGateFired = true
		c.finQueued = true
		c.rstQueued = true
		c.finOff = c.sb.End()
		if c.onCloseSignal != nil {
			c.onCloseSignal(true)
		}
		return
	}
	c.sendRST()
	c.teardown(ErrReset)
}

// --- State machine internals ---

func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	c.state = s
}

func (c *Conn) trace(kind trace.Kind, format string, args ...any) {
	c.traceValue(kind, 0, format, args...)
}

func (c *Conn) traceValue(kind trace.Kind, value int64, format string, args ...any) {
	c.stack.tracer.EmitValue(kind, c.stack.name+"/tcp", value, format, args...)
}

// noteRetransmit is the one place a retransmission is recorded: the
// connection's own tally, the stack's tcp.retransmits counter and the
// KindRetransmit event (carrying the wire sequence resent from) move
// together, so the three cannot disagree. A stack without a registry or
// without a tracer still records the rest.
func (c *Conn) noteRetransmit(format string, args ...any) {
	c.Retransmits++
	c.stack.mRetransmits.Inc()
	c.traceValue(trace.KindRetransmit, int64(c.sendWireSeq(c.sndUna)), format, args...)
}

// wire sequence conversions: stream offset 0 is the byte after the SYN, so
// the SYN itself sits at offset -1.
func (c *Conn) sendWireSeq(off int64) uint32 { return c.iss + 1 + uint32(uint64(off)) }
func (c *Conn) recvWireSeq(off int64) uint32 { return c.irs + 1 + uint32(uint64(off)) }

// recvOffset unwraps an incoming wire sequence number to a stream offset.
func (c *Conn) recvOffset(seq uint32) int64 {
	return c.rb.next + int64(seqDelta(seq, c.recvWireSeq(c.rb.next)))
}

// ackOffset unwraps an incoming wire acknowledgement number.
func (c *Conn) ackOffset(ack uint32) int64 {
	return c.sndUna + int64(seqDelta(ack, c.sendWireSeq(c.sndUna)))
}

func (c *Conn) connect() {
	c.setState(StateSynSent)
	c.sndUna, c.sndNxt, c.sndMax = -1, -1, 0 // SYN occupies offset -1
	c.sendSegmentRaw(FlagSYN, -1, nil, true)
	c.sndNxt = 0
	c.armRetransTimer()
}

// acceptSYN initialises a passive connection from a received SYN.
func (c *Conn) acceptSYN(seg *Segment) {
	c.irs = seg.Seq
	if seg.MSS != 0 && int(seg.MSS) < c.mss {
		c.mss = int(seg.MSS)
	}
	c.sndWnd = int(seg.Window)
	c.setState(StateSynRcvd)
	c.sndUna, c.sndNxt, c.sndMax = -1, -1, 0
	c.sendSegmentRaw(FlagSYN|FlagACK, -1, nil, true)
	c.sndNxt = 0
	c.armRetransTimer()
}

// handleSegment processes one inbound segment addressed to this
// connection.
func (c *Conn) handleSegment(seg *Segment) {
	if c.state == StateClosed {
		return
	}
	if c.state == StateSynSent {
		c.handleSynSent(seg)
		return
	}
	segOff := c.recvOffset(seg.Seq)
	segLen := int64(seg.SegLen())
	wnd := int64(c.rb.window())

	if seg.Flags.Has(FlagRST) {
		// Accept RST only if in window (approximately).
		if segOff <= c.rb.next+wnd && segOff+segLen >= c.rb.next {
			c.trace(trace.KindConnReset, "RST received in %v", c.state)
			c.teardown(ErrReset)
		}
		return
	}

	// Duplicate SYN for an embryonic connection: re-send SYN-ACK.
	if seg.Flags.Has(FlagSYN) && c.state == StateSynRcvd && seg.Seq == c.irs {
		c.sendSegmentRaw(FlagSYN|FlagACK, -1, nil, true)
		return
	}

	// Segment acceptability (RFC 793): any overlap with the window.
	acceptable := true
	if segLen == 0 {
		acceptable = segOff <= c.rb.next+wnd // pure ack at or before window edge
	} else {
		acceptable = segOff < c.rb.next+wnd && segOff+segLen > c.rb.next
	}
	if !acceptable {
		// Out-of-window (e.g. a persist probe against a zero
		// window): answer with the current ack so the sender learns
		// our window.
		c.sendControl(FlagACK)
		return
	}

	if seg.Flags.Has(FlagACK) {
		c.processAck(seg)
		if c.state == StateClosed {
			return
		}
	}

	if len(seg.Payload) > 0 {
		c.processData(segOff, seg)
	}

	if seg.Flags.Has(FlagFIN) {
		finOff := segOff + int64(len(seg.Payload))
		c.processPeerFIN(finOff)
	}
}

func (c *Conn) handleSynSent(seg *Segment) {
	if seg.Flags.Has(FlagRST) {
		if seg.Flags.Has(FlagACK) && c.ackOffset(seg.Ack) == c.sndNxt {
			c.teardown(ErrReset)
		}
		return
	}
	if !seg.Flags.Has(FlagSYN) || !seg.Flags.Has(FlagACK) {
		return
	}
	if c.ackOffset(seg.Ack) != 0 { // must ack exactly our SYN
		c.sendRST()
		return
	}
	c.irs = seg.Seq
	if seg.MSS != 0 && int(seg.MSS) < c.mss {
		c.mss = int(seg.MSS)
	}
	c.resetCongestion()
	c.sndUna = 0
	c.sndWnd = int(seg.Window)
	c.cancelRetransTimer()
	c.setState(StateEstablished)
	c.trace(trace.KindConnEstablished, "active open to %v:%d", c.id.RemoteAddr, c.id.RemotePort)
	c.sendControl(FlagACK)
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
	c.maybeSend()
}

func (c *Conn) processAck(seg *Segment) {
	ackOff := c.ackOffset(seg.Ack)
	// An ack may cover bytes beyond sndNxt when sndNxt was rewound at a
	// timeout but the receiver had buffered later segments out of
	// order; anything up to sndMax was genuinely sent.
	maxAckable := c.sndMax

	if ackOff > maxAckable {
		if c.suppressed || c.wasReplica {
			// The backup sees client acks for bytes the primary
			// sent before the (deterministic) replica produced
			// them; remember and apply once our stream catches up.
			c.ghostAck = max(c.ghostAck, ackOff)
			c.applyWindow(seg)
			return
		}
		// Ack for data never sent: ignore but re-ack.
		c.sendControl(FlagACK)
		return
	}

	if ackOff > c.sndUna {
		c.advanceUna(ackOff)
		c.applyWindow(seg)
		c.dupAcks = 0
	} else if ackOff == c.sndUna {
		c.applyWindow(seg)
		if c.sndNxt > c.sndUna && len(seg.Payload) == 0 && !seg.Flags.Has(FlagSYN|FlagFIN) {
			c.dupAcks++
			if c.dupAcks == 3 {
				c.fastRetransmit()
			}
		}
	}

	// Handshake completion for passive open.
	if c.state == StateSynRcvd && ackOff >= 0 {
		c.setState(StateEstablished)
		c.cancelRetransTimer()
		c.armRetransTimerIfNeeded()
		c.trace(trace.KindConnEstablished, "passive open from %v:%d", c.id.RemoteAddr, c.id.RemotePort)
		if c.OnEstablished != nil {
			c.OnEstablished()
		}
		if l := c.stack.listenerFor(c.id.LocalAddr, c.id.LocalPort); l != nil && l.OnEstablished != nil {
			l.OnEstablished(c)
		}
	}

	// FIN acknowledged? (Checked against finQueued, not finSent: a
	// timeout rewind may have cleared finSent after the FIN was in
	// fact delivered.)
	if c.finQueued && !c.finAcked && ackOff > c.finOff {
		c.finAcked = true
		c.finSent = true
		switch c.state {
		case StateFinWait1:
			c.setState(StateFinWait2)
		case StateClosing:
			c.enterTimeWait()
		case StateLastAck:
			c.trace(trace.KindConnClosed, "closed (LAST_ACK)")
			c.teardown(nil)
		}
	}
}

// advanceUna handles a new acknowledgement: frees the send buffer, updates
// RTT and congestion state, and manages the retransmission timer.
func (c *Conn) advanceUna(ackOff int64) {
	acked := ackOff - c.sndUna
	c.sndUna = ackOff
	c.sndNxt = max(c.sndNxt, ackOff) // the ack vouches for rewound-past bytes
	// Bytes (not the FIN's phantom octet) leave the buffer.
	c.sb.Release(min(ackOff, c.sb.End()))
	c.dropSendRing()

	if c.rtPending && ackOff > c.rtOffset {
		c.updateRTT(c.stack.sim.Elapsed() - c.rtStart)
		c.rtPending = false
	}
	c.backoff = 0
	c.retransCount = 0
	// NewReno partial-ack handling: an ack that advances una but not
	// past the recovery point means the next hole is also lost —
	// retransmit it immediately instead of waiting for the RTO.
	if c.fastRecovery {
		if ackOff >= c.recoverOff {
			c.fastRecovery = false
		} else {
			c.retransmit()
		}
	}
	c.growCwnd(int(acked))
	if c.sndNxt > c.sndUna || (c.finQueued && !c.finAcked && c.finSent) {
		c.armRetransTimer()
	} else {
		c.cancelRetransTimer()
	}
	c.notifyWritable()
}

// dropSendRing lets go of the send ring once the peer has finished and
// every byte is acknowledged: a connection in CLOSE_WAIT, or one waiting
// out its own close, holds no send storage. Write regrows it.
func (c *Conn) dropSendRing() {
	if c.peerFINSeen && c.sb.Len() == 0 {
		c.sb.drop()
	}
}

func (c *Conn) applyWindow(seg *Segment) {
	c.sndWnd = int(seg.Window)
	if c.sndWnd > 0 {
		c.cancelPersistTimer()
		c.maybeSend()
	} else if c.pendingToSend() {
		c.armPersistTimer()
	}
}

func (c *Conn) processData(segOff int64, seg *Segment) {
	delivered := c.rb.accept(segOff, seg.Payload)
	// Every data segment is acknowledged at once: a duplicate ack drives
	// the peer's fast retransmit.
	c.sendControl(FlagACK)
	if delivered > 0 {
		c.notifyReadable()
	}
}

func (c *Conn) processPeerFIN(finOff int64) {
	if c.rb.next != finOff {
		return // FIN not yet in order; will be processed on retransmit
	}
	if !c.peerFINSeen {
		c.peerFINSeen = true
		c.peerFINOff = finOff
		c.rb.next = finOff + 1
		c.dropSendRing()
	}
	c.sendControl(FlagACK)
	switch c.state {
	case StateEstablished, StateSynRcvd:
		c.setState(StateCloseWait)
	case StateFinWait1:
		if c.finAcked {
			c.enterTimeWait()
		} else {
			c.setState(StateClosing)
		}
	case StateFinWait2:
		c.enterTimeWait()
	}
	c.notifyReadable() // EOF is readable
}

// --- Output path ---

// pendingToSend reports whether unsent data or an unsent FIN exists.
func (c *Conn) pendingToSend() bool {
	if c.sndNxt < c.sb.End() {
		return true
	}
	return c.finQueued && !c.finSent && !c.finGate
}

// maybeSend transmits as much pending data as the flow-control and
// congestion windows allow, then a FIN if due.
func (c *Conn) maybeSend() {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateClosing, StateLastAck:
	default:
		return
	}
	c.applyGhostAck()
	wnd := min(c.sndWnd, c.cwnd)
	sent := false
	for c.sndNxt < c.sb.End() {
		flight := int(c.sndNxt - c.sndUna)
		room := wnd - flight
		if room <= 0 {
			break
		}
		payload, err := c.sb.Slice(c.sndNxt, min(c.mss, room))
		if err != nil || len(payload) == 0 {
			break
		}
		c.transmitData(c.sndNxt, payload, false)
		c.sndNxt += int64(len(payload))
		c.sndMax = max(c.sndMax, c.sndNxt)
		sent = true
	}
	// FIN rides after all data, if the gate is open and window permits
	// its phantom octet.
	if c.finQueued && !c.finSent && !c.finGate && c.sndNxt == c.sb.End() {
		c.sendSegmentRaw(FlagFIN|FlagACK, c.sndNxt, nil, false)
		c.finSent = true
		c.sndNxt = c.finOff + 1
		c.sndMax = max(c.sndMax, c.sndNxt)
		sent = true
	}
	if sent {
		c.armRetransTimerIfNeeded()
		// Karn's algorithm: never sample while backing off — the
		// bytes at the front of the window are retransmissions.
		if !c.rtPending && c.backoff == 0 && c.sndNxt > c.sndUna {
			c.startRTTSample(c.sndUna)
		}
		// A suppressed replica may just have produced bytes the
		// client acknowledged before we wrote them; re-apply.
		c.applyGhostAck()
	}
	if c.sndWnd == 0 && c.pendingToSend() {
		c.armPersistTimer()
	}
}

// applyGhostAck applies a remembered client acknowledgement for bytes the
// deterministic replica had not produced when the ack arrived (backup
// role, paper §2: the client's acks serve as acks for both servers).
func (c *Conn) applyGhostAck() {
	if !(c.suppressed || c.wasReplica) || c.ghostAck <= c.sndUna {
		return
	}
	if target := min(c.ghostAck, c.sndNxt); target > c.sndUna {
		c.advanceUna(target)
	}
}

func (c *Conn) transmitData(off int64, payload []byte, retrans bool) {
	flags := FlagACK | FlagPSH
	// Piggyback the FIN on the final data segment when possible.
	if c.finQueued && !c.finGate && off+int64(len(payload)) == c.finOff &&
		(c.finSent || retrans) {
		flags |= FlagFIN
	}
	c.sendSegmentRaw(flags, off, payload, false)
}

// sendControl emits a data-less segment with the given flags at the
// current send position.
func (c *Conn) sendControl(flags Flags) {
	if c.state == StateClosed {
		return
	}
	c.sendSegmentRaw(flags, c.sndNxt, nil, false)
}

// sendSegmentRaw builds and emits one segment. off -1 denotes the SYN.
// seg.Payload aliases the send buffer: emit and its observer consume the
// segment synchronously (see the OnTransmit contract on Stack), so no
// defensive copy is taken per segment.
//
//sttcp:hotpath
func (c *Conn) sendSegmentRaw(flags Flags, off int64, payload []byte, isSYN bool) {
	seg := c.stack.takeSegment()
	*seg = Segment{
		SrcPort: c.id.LocalPort,
		DstPort: c.id.RemotePort,
		Seq:     c.sendWireSeq(off),
		Flags:   flags,
		Window:  clampWindow(c.rb.window()),
		Payload: payload,
	}
	if isSYN {
		seg.MSS = DefaultMSS
	}
	if flags.Has(FlagACK) {
		seg.Ack = c.recvWireSeq(c.rb.next)
	}
	c.output(seg) //sttcp:allow hotpathalloc emit and noteSuppressed box trace arguments behind the Detail() gate, off in measured runs; the Segment itself is pooled (TestAllocsPerSegmentBudget)
}

func (c *Conn) sendRST() {
	if c.state == StateClosed {
		return
	}
	seg := c.stack.takeSegment()
	*seg = Segment{
		SrcPort: c.id.LocalPort,
		DstPort: c.id.RemotePort,
		Seq:     c.sendWireSeq(c.sndNxt),
		Ack:     c.recvWireSeq(c.rb.next),
		Flags:   FlagRST | FlagACK,
	}
	c.output(seg)
}

// output emits seg, or on a suppressed connection notes it, and releases it.
func (c *Conn) output(seg *Segment) {
	if c.suppressed {
		c.SuppressedSegments++
		c.stack.noteSuppressed(seg)
	} else {
		c.stack.emit(c, seg)
	}
	c.stack.releaseSegment(seg)
}

func clampWindow(w int) uint16 {
	return uint16(min(w, 65535))
}

// --- Timers ---

//sttcp:hotpath
func (c *Conn) armRetransTimer() {
	c.retransTimer.Arm(c.RTO())
}

//sttcp:hotpath
func (c *Conn) armRetransTimerIfNeeded() {
	if !c.retransTimer.Armed() {
		c.armRetransTimer()
	}
}

//sttcp:hotpath
func (c *Conn) cancelRetransTimer() {
	c.retransTimer.Stop()
}

func (c *Conn) onRetransTimeout() {
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	if c.sndNxt <= c.sndUna && !(c.finSent && !c.finAcked) &&
		!(c.state == StateSynSent || c.state == StateSynRcvd) {
		return // nothing outstanding
	}
	c.retransCount++
	if c.retransCount > maxRetransmits {
		c.trace(trace.KindConnClosed, "giving up after %d retransmits", c.retransCount-1)
		c.teardown(ErrTimeout)
		return
	}
	// Timeout: collapse the congestion window (Reno).
	flight := int(c.sndNxt - c.sndUna)
	c.ssthresh = max(flight/2, 2*c.mss)
	c.cwnd = c.mss
	c.dupAcks = 0
	c.fastRecovery = false
	c.rtPending = false // Karn's algorithm: no samples from retransmits
	if c.backoff < 16 {
		c.backoff++
		c.stack.mBackoffs.Inc()
	}
	c.noteCwnd()
	// Go back to the oldest unacked byte: everything in flight is
	// presumed lost. Without this, segments that genuinely vanished
	// (the backup's suppressed output, a crashed primary's in-flight
	// data) would count against the window forever and strangle the
	// post-takeover stream to one segment per RTO.
	switch c.state {
	case StateSynSent, StateSynRcvd:
		c.retransmit()
	default:
		if c.sndUna < c.sb.End() {
			c.sndNxt = c.sndUna
			if c.finSent && !c.finAcked {
				c.finSent = false // resend the FIN after the data
			}
			c.noteRetransmit("timeout: rewind to una=%d rto=%v", c.sndUna, c.RTO())
			c.maybeSend()
		} else if c.finSent && !c.finAcked {
			c.retransmit() // lone FIN outstanding
		}
	}
	c.armRetransTimer()
}

// retransmit resends the oldest outstanding segment (or SYN/FIN).
func (c *Conn) retransmit() {
	c.noteRetransmit("retransmit una=%d nxt=%d rto=%v", c.sndUna, c.sndNxt, c.RTO())
	switch c.state {
	case StateSynSent:
		c.sendSegmentRaw(FlagSYN, -1, nil, true)
		return
	case StateSynRcvd:
		c.sendSegmentRaw(FlagSYN|FlagACK, -1, nil, true)
		return
	}
	if c.sndUna < c.sb.End() {
		n := c.mss
		payload, err := c.sb.Slice(c.sndUna, n)
		if err != nil || len(payload) == 0 {
			return
		}
		c.transmitData(c.sndUna, payload, true)
		return
	}
	if c.finSent && !c.finAcked {
		c.sendSegmentRaw(FlagFIN|FlagACK, c.finOff, nil, false)
	}
}

func (c *Conn) fastRetransmit() {
	if c.fastRecovery {
		return
	}
	c.fastRecovery = true
	c.recoverOff = c.sndNxt
	flight := int(c.sndNxt - c.sndUna)
	c.ssthresh = max(flight/2, 2*c.mss)
	c.cwnd = c.ssthresh
	c.noteCwnd()
	c.retransmit()
}

func (c *Conn) armPersistTimer() {
	if c.persistTimer.Armed() {
		return
	}
	c.persistTimer.Arm(min(MinRTO<<c.persistShift, maxRTO))
}

func (c *Conn) cancelPersistTimer() {
	c.persistTimer.Stop()
	c.persistShift = 0
}

func (c *Conn) onPersistTimeout() {
	if c.state == StateClosed || !c.pendingToSend() || c.sndWnd > 0 {
		return
	}
	// Send a 1-byte window probe beyond the closed window; the peer
	// drops the byte but answers with its current window.
	payload, err := c.sb.Slice(c.sndNxt, 1)
	if err == nil && len(payload) == 1 {
		c.sendSegmentRaw(FlagACK|FlagPSH, c.sndNxt, payload, false)
	} else if c.finQueued && !c.finSent && !c.finGate {
		c.sendSegmentRaw(FlagFIN|FlagACK, c.sndNxt, nil, false)
	}
	if c.persistShift < 6 {
		c.persistShift++
	}
	c.armPersistTimer()
}

func (c *Conn) enterTimeWait() {
	c.setState(StateTimeWait)
	c.cancelRetransTimer()
	c.cancelPersistTimer()
	c.timeWaitTimer.Arm(2 * msl)
}

func (c *Conn) onTimeWaitExpired() {
	c.trace(trace.KindConnClosed, "closed (TIME_WAIT expired)")
	c.teardown(nil)
}

// teardown finalises the connection and notifies the application once.
func (c *Conn) teardown(err error) {
	if c.state == StateClosed && c.closeNotified {
		return
	}
	c.setState(StateClosed)
	c.closeErr = err
	c.cancelRetransTimer()
	c.cancelPersistTimer()
	c.timeWaitTimer.Stop()
	c.stack.removeConn(c)
	if !c.closeNotified {
		c.closeNotified = true
		if c.OnClose != nil {
			c.OnClose(err)
		}
	}
}

// --- RTT / congestion ---

func (c *Conn) startRTTSample(off int64) {
	c.rtPending = true
	c.rtOffset = off
	c.rtStart = c.stack.sim.Elapsed()
}

func (c *Conn) updateRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = min(max(c.srtt+4*c.rttvar, MinRTO), maxRTO)
}

func (c *Conn) resetCongestion() {
	c.cwnd = 2 * c.mss
	c.ssthresh = 1 << 30
}

func (c *Conn) growCwnd(acked int) {
	if acked <= 0 {
		return
	}
	if c.cwnd < c.ssthresh {
		c.cwnd += min(acked, c.mss) // slow start
	} else {
		c.cwnd += max(1, c.mss*c.mss/c.cwnd) // congestion avoidance
	}
	c.cwnd = min(c.cwnd, sendBufferSize)
	c.noteCwnd()
}

// noteCwnd samples the congestion window into the stack-level gauge;
// the gauge's high-water mark records the largest window any
// connection on this stack ever opened.
func (c *Conn) noteCwnd() {
	c.stack.mCwnd.Set(int64(c.cwnd))
}

// notifyReadable and notifyWritable deliver application callbacks
// asynchronously (as zero-delay wake-ups, which run after the current
// event, in place when nothing else is due at the instant) so that
// protocol processing triggered from inside an application's Read/Write
// call can never re-enter the application synchronously. Deliveries are
// coalesced, and the prebound callbacks ride the host clock's posts, so
// steady-state data delivery allocates nothing here and a crash drops a
// pending one.
//
//sttcp:hotpath
func (c *Conn) notifyReadable() {
	if c.OnReadable == nil || c.readablePending {
		return
	}
	c.readablePending = true
	c.stack.clock.Post(0, c.readableFn)
}

//sttcp:hotpath
func (c *Conn) notifyWritable() {
	if c.OnWritable == nil || c.writablePending {
		return
	}
	c.writablePending = true
	c.stack.clock.Post(0, c.writableFn)
}

func (c *Conn) deliverReadable() {
	c.readablePending = false
	if c.OnReadable != nil {
		c.OnReadable()
	}
}

func (c *Conn) deliverWritable() {
	c.writablePending = false
	if c.OnWritable != nil && c.sb.Free() > 0 {
		c.OnWritable()
	}
}
