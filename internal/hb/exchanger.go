package hb

import (
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/netstack"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/trace"
)

// LinkID identifies one of the two diverse heartbeat links.
type LinkID int

// The two heartbeat links of the enhanced ST-TCP design (paper §3).
const (
	LinkIP LinkID = iota + 1
	LinkSerial
)

// String names the link.
func (l LinkID) String() string {
	switch l {
	case LinkIP:
		return "ip-link"
	case LinkSerial:
		return "serial-link"
	default:
		return fmt.Sprintf("LinkID(%d)", int(l))
	}
}

// Channel is a transport capable of carrying heartbeat messages.
type Channel interface {
	// Send transmits one encoded heartbeat; best-effort.
	Send(msg []byte) error
	// SetHandler registers the receive callback.
	SetHandler(h func(msg []byte))
	// ID identifies which diverse link this channel rides on.
	ID() LinkID
	// MaxMessageBytes bounds one transmission; larger heartbeats are
	// fragmented by connection (Message.Split).
	MaxMessageBytes() int
}

// UDPChannel carries heartbeats over UDP on the IP link.
type UDPChannel struct {
	ns       *netstack.Stack
	port     uint16
	peer     ip.Addr
	peerPort uint16
	handler  func([]byte)
}

// NewUDPChannel binds localPort on ns and targets peer:peerPort.
func NewUDPChannel(ns *netstack.Stack, localPort uint16, peer ip.Addr, peerPort uint16) (*UDPChannel, error) {
	c := &UDPChannel{ns: ns, port: localPort, peer: peer, peerPort: peerPort}
	err := ns.UDPListen(localPort, func(src ip.Addr, srcPort uint16, payload []byte) {
		if c.handler != nil {
			c.handler(payload)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("hb: bind udp channel: %w", err)
	}
	return c, nil
}

// Send implements Channel.
func (c *UDPChannel) Send(msg []byte) error {
	return c.ns.UDPSend(c.port, c.peer, c.peerPort, msg)
}

// SetHandler implements Channel.
func (c *UDPChannel) SetHandler(h func(msg []byte)) { c.handler = h }

// ID implements Channel.
func (c *UDPChannel) ID() LinkID { return LinkIP }

// MaxMessageBytes implements Channel: one UDP datagram within the
// Ethernet MTU.
func (c *UDPChannel) MaxMessageBytes() int { return 1400 }

// SerialChannel carries heartbeats over the null-modem serial line.
type SerialChannel struct {
	port *serial.Port
}

// NewSerialChannel wraps one end of a serial pair.
func NewSerialChannel(p *serial.Port) *SerialChannel {
	return &SerialChannel{port: p}
}

// Send implements Channel.
func (c *SerialChannel) Send(msg []byte) error { return c.port.Send(msg) }

// SetHandler implements Channel.
func (c *SerialChannel) SetHandler(h func(msg []byte)) { c.port.SetHandler(h) }

// ID implements Channel.
func (c *SerialChannel) ID() LinkID { return LinkSerial }

// MaxMessageBytes implements Channel: the serial framing limit.
func (c *SerialChannel) MaxMessageBytes() int { return serial.MaxMessageLen }

// Compile-time interface checks.
var (
	_ Channel = (*UDPChannel)(nil)
	_ Channel = (*SerialChannel)(nil)
)

// Timeout is how long a link may be silent before it is declared down: three
// heartbeat periods, the conventional small multiple.
func Timeout(period time.Duration) time.Duration { return 3 * period }

// Exchanger periodically emits heartbeats over every attached channel and
// tracks per-link liveness of the peer's heartbeats.
type Exchanger struct {
	clock    *sim.Clock // the host's: both tickers arm and stretch on it
	name     string
	period   time.Duration
	tracer   *trace.Recorder
	channels []Channel

	// Compose builds the outgoing message each tick.
	Compose func() Message
	// OnMessage receives every inbound heartbeat with the link it
	// arrived on.
	OnMessage func(m Message, link LinkID)
	// OnLinkDown fires once when a link transitions to down.
	OnLinkDown func(link LinkID)
	// OnLinkUp fires once when a link transitions back up.
	OnLinkUp func(link LinkID)

	lastRx  map[LinkID]time.Time
	down    map[LinkID]bool
	ticker  *sim.Ticker
	checker *sim.Ticker
	seq     uint64
	stopped bool

	// Per-link metric instruments, created at Attach; all nil no-ops when
	// the exchanger was built without a registry. They are the only count
	// of heartbeats: the hb-sent / hb-received events are detail.
	reg       *metrics.Registry
	mSent     map[LinkID]*metrics.Counter
	mReceived map[LinkID]*metrics.Counter
	mLinkDown map[LinkID]*metrics.Counter
}

// NewExchanger builds an exchanger that beats every period, which must be
// positive, on the host's clock (which paces it at the host's possibly
// skewed rate); call Attach for each channel, then Start. reg may be nil
// (no metrics).
func NewExchanger(clock *sim.Clock, name string, period time.Duration, tracer *trace.Recorder, reg *metrics.Registry) *Exchanger {
	return &Exchanger{
		clock:     clock,
		name:      name,
		period:    period,
		tracer:    tracer,
		lastRx:    make(map[LinkID]time.Time),
		down:      make(map[LinkID]bool),
		reg:       reg,
		mSent:     make(map[LinkID]*metrics.Counter),
		mReceived: make(map[LinkID]*metrics.Counter),
		mLinkDown: make(map[LinkID]*metrics.Counter),
	}
}

// Attach adds a channel and installs the receive handler.
func (e *Exchanger) Attach(c Channel) {
	e.channels = append(e.channels, c)
	id := c.ID()
	l := metrics.Label{Key: "link", Value: id.String()}
	e.mSent[id] = e.reg.Counter(e.name, "hb.sent", l)
	e.mReceived[id] = e.reg.Counter(e.name, "hb.received", l)
	e.mLinkDown[id] = e.reg.Counter(e.name, "hb.link_down", l)
	c.SetHandler(func(raw []byte) { e.receive(id, raw) })
}

// Start begins periodic transmission and liveness checking. Links are
// considered up at start; the first timeout can therefore only occur one
// full Timeout after Start.
func (e *Exchanger) Start() {
	now := e.clock.Sim().Now()
	for _, c := range e.channels {
		e.lastRx[c.ID()] = now
	}
	// Check liveness at a finer grain than the period so detection
	// latency is dominated by Timeout, not by check quantisation.
	check := e.period / 4
	if check <= 0 {
		check = time.Millisecond
	}
	e.ticker = e.clock.NewTicker(e.period, e.tick)
	e.checker = e.clock.NewTicker(check, e.checkLiveness)
	e.tick() // send the first heartbeat immediately
}

// Stop halts transmission and liveness checking (host crash, takeover
// completion).
func (e *Exchanger) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	if e.ticker != nil {
		e.ticker.Stop()
	}
	if e.checker != nil {
		e.checker.Stop()
	}
}

// SendNow emits an immediate out-of-schedule heartbeat. ST-TCP requires a
// server that generates a FIN to communicate it to its peer right away
// (paper §4.2.2), not at the next tick.
func (e *Exchanger) SendNow() { e.tick() }

// LinkDown reports whether the given link is currently considered down.
func (e *Exchanger) LinkDown(id LinkID) bool { return e.down[id] }

// AllLinksDown reports whether every attached link is down — the symptom
// that lets a server conclude its peer has crashed (Table 1 row 1).
func (e *Exchanger) AllLinksDown() bool {
	if len(e.channels) == 0 {
		return false
	}
	for _, c := range e.channels {
		if !e.down[c.ID()] {
			return false
		}
	}
	return true
}

// AnyLinkDown reports whether at least one attached link is down — while
// true, some peer-silence suspicion is still live.
func (e *Exchanger) AnyLinkDown() bool {
	for _, c := range e.channels {
		if e.down[c.ID()] {
			return true
		}
	}
	return false
}

// LastReceived returns when a heartbeat last arrived on the link.
func (e *Exchanger) LastReceived(id LinkID) time.Time { return e.lastRx[id] }

func (e *Exchanger) tick() {
	if e.stopped || e.Compose == nil {
		return
	}
	m := e.Compose()
	m.Seq = e.seq
	e.seq++
	// One hb-round span per tick; sends (and, via the simulator's causal
	// context, the peer's deliveries) attach to it. Fan-in has no single
	// close point, so the span is finalized at its last activity.
	if e.tracer.Detail() {
		sp := e.tracer.OpenAutoSpan(trace.KindHBRound, 0, e.name, "hb round seq=%d", m.Seq)
		defer e.tracer.Activate(sp)()
	}
	for _, c := range e.channels {
		chunks, err := m.Split(c.MaxMessageBytes())
		if err != nil {
			continue
		}
		sent := 0
		bytes := 0
		for _, raw := range chunks {
			if err := c.Send(raw); err == nil {
				sent++
				bytes += len(raw)
			}
		}
		if sent > 0 {
			e.mSent[c.ID()].Inc()
			if e.tracer.Detail() {
				e.tracer.EmitValue(trace.KindHBSent, e.name, int64(m.Seq), "hb seq=%d on %v (%d chunk(s), %dB)", m.Seq, c.ID(), sent, bytes)
			}
		}
	}
}

func (e *Exchanger) receive(link LinkID, raw []byte) {
	if e.stopped {
		return
	}
	m, err := Decode(raw)
	if err != nil {
		return
	}
	e.mReceived[link].Inc()
	e.lastRx[link] = e.clock.Sim().Now()
	if e.tracer.Detail() {
		e.tracer.EmitValue(trace.KindHBReceived, e.name, int64(m.Seq), "hb seq=%d on %v", m.Seq, link)
	}
	if e.down[link] {
		e.down[link] = false
		e.tracer.Emit(trace.KindHBLinkUp, e.name, "%v back up", link)
		if e.OnLinkUp != nil {
			e.OnLinkUp(link)
		}
	}
	if e.OnMessage != nil {
		e.OnMessage(m, link)
	}
}

func (e *Exchanger) checkLiveness() {
	if e.stopped {
		return
	}
	now, timeout := e.clock.Sim().Now(), Timeout(e.period)
	for _, c := range e.channels {
		id := c.ID()
		if e.down[id] {
			continue
		}
		if now.Sub(e.lastRx[id]) > timeout {
			e.down[id] = true
			e.mLinkDown[id].Inc()
			e.tracer.Emit(trace.KindHBLinkDown, e.name, "%v silent for >%v", id, timeout)
			if e.OnLinkDown != nil {
				e.OnLinkDown(id)
			}
		}
	}
}
