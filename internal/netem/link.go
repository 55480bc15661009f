// Package netem emulates the paper's testbed network (Figure 2): full-duplex
// Ethernet links with bandwidth and propagation delay, NICs with fault
// injection, and a store-and-forward switch that supports the static
// multicast Ethernet group ("multiEA") through which both the primary and
// the backup receive every client frame.
package netem

import (
	"math"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Endpoint receives raw Ethernet frames from a link. A NIC implements it;
// a switch port is not an Endpoint, because it keeps what it is handed (see
// Connect).
type Endpoint interface {
	// DeliverFrame hands a fully received frame to the endpoint. buf is
	// valid only for the duration of the call — the link returns it to its
	// frame pool when DeliverFrame returns — so the endpoint must copy
	// anything it keeps (the NIC lends it on to its handler under the same
	// contract, see NIC.SetHandler). fcsOK is the frame's verdict: these
	// bytes are intact since a NIC sent them, and nothing has written them
	// since, so their FCS, IP, TCP and UDP checksum fields, which may be
	// unwritten, need no reading. A frame a corrupting link damaged, or one
	// handed to TransmitFromA or TransmitFromB, has no such verdict, and
	// the receiving NIC checks all of it. Integrity is decided at the
	// receiving NIC; nothing above it sees a verdict.
	DeliverFrame(buf []byte, fcsOK bool)
}

// LinkConfig describes one full-duplex link.
type LinkConfig struct {
	// BitsPerSecond is the serialization rate in each direction.
	// Zero means infinitely fast.
	BitsPerSecond int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter) to each
	// frame independently. Jitter larger than a frame's serialization
	// time causes reordering, which TCP must repair.
	Jitter time.Duration
	// LossRate drops each frame independently with this probability.
	LossRate float64
}

// DefaultLANConfig mimics the testbed's 100 Mbit/s switched Ethernet.
func DefaultLANConfig() LinkConfig {
	return LinkConfig{
		BitsPerSecond: 100_000_000,
		Delay:         50 * time.Microsecond,
	}
}

// Link is a full-duplex point-to-point link between two endpoints. Each
// direction serialises frames at the configured rate: a frame begins
// transmission when the previous one has left the wire, and arrives one
// propagation delay after its last bit is sent.
type Link struct {
	sim        *sim.Simulator
	cfg        LinkConfig
	a, b       *linkSide
	extraDelay time.Duration

	// Drops counts frames lost to loss-rate, drop windows, or cuts.
	Drops int64
	// Delivered counts frames handed to endpoints.
	Delivered int64
	// Corrupted counts frames that had a bit flipped in flight. These are
	// delivered, not dropped: the corruption must survive to the receiver
	// so checksum reject paths actually run.
	Corrupted int64

	// corruptRate flips one random bit per frame with this probability.
	corruptRate float64

	// Metric instruments, wired by SetMetrics; nil no-ops otherwise.
	mFrames *metrics.Counter
	mDrops  *metrics.Counter
	mQueue  *metrics.Histogram

	// Trace hookup, wired by SetTrace; detail events only fire when the
	// recorder's detail mode is on.
	tracer *trace.Recorder
	name   string

	// Frame buffers and delivery records are pooled so steady-state
	// traffic allocates nothing per frame. Each in-flight frame owns one
	// delivery record and one pooled buffer. The record returns to the
	// link's pool, which keeps at most poolFrames, when the delivery
	// completes; the buffer returns to pool when the endpoint is done
	// with it — or, delivered to a switch port, when the switch is.
	pool       *bufPool
	deliveries []*delivery
}

// delivery is one in-flight frame: the pooled buffer, its verdict (see
// Endpoint), the arrival deadline (virtual time since sim.Epoch, as
// Simulator.Elapsed reads it), and the sender's causal context, restored
// around the endpoint call so trace spans follow the frame across the wire
// even though many frames share one timer event.
type delivery struct {
	frame   []byte
	fcsOK   bool
	arrival time.Duration
	ctx     uint64
}

func (l *Link) takeDelivery() *delivery {
	if n := len(l.deliveries); n > 0 {
		d := l.deliveries[n-1]
		l.deliveries[n-1] = nil
		l.deliveries = l.deliveries[:n-1]
		return d
	}
	return &delivery{}
}

// linkSide is one direction of the link. In-flight frames sit in
// pending[head:] ordered by arrival, and one timer per side — armed for
// the earliest arrival — drains everything due when it fires, so the
// simulator's event queue holds O(links) delivery events instead of
// O(in-flight frames).
type linkSide struct {
	peer     Endpoint      // delivery target (the *other* end)
	port     *SwitchPort   // or the switch port it feeds, which keeps each frame (see Connect)
	dwell    time.Duration // a switch peer's forwarding latency, added to every arrival (see Connect)
	nextFree time.Duration // when the wire is free again, since sim.Epoch
	dropTill time.Duration // end of the drop window, since sim.Epoch
	cut      bool          // indefinite one-direction cut (asymmetric partition)

	pending []*delivery // in flight, pending[head:] sorted by arrival
	head    int
	timer   *sim.Timer
}

// NewLink creates a link; attach both ends with Attach before use.
func NewLink(s *sim.Simulator, cfg LinkConfig) *Link {
	l := &Link{sim: s, cfg: cfg, a: &linkSide{}, b: &linkSide{}, pool: &bufPool{limit: poolFrames}}
	l.a.timer = s.NewTimer(func() { l.drain(l.a) })
	l.b.timer = s.NewTimer(func() { l.drain(l.b) })
	return l
}

// Attach wires the two endpoints to the link. Frames transmitted by a are
// delivered to b and vice versa.
func (l *Link) Attach(a, b Endpoint) {
	l.a.peer = b
	l.b.peer = a
}

// SetMetrics registers the link's instruments under component "netem"
// with a link=name label: delivered frames, drops, and a queueing-delay
// histogram (time a frame waits behind earlier frames before its first
// bit hits the wire). reg may be nil.
func (l *Link) SetMetrics(reg *metrics.Registry, name string) {
	lb := metrics.Label{Key: "link", Value: name}
	l.mFrames = reg.Counter("netem", "netem.link_frames", lb)
	l.mDrops = reg.Counter("netem", "netem.link_drops", lb)
	l.mQueue = reg.Histogram("netem", "netem.queue_delay", nil, lb)
}

// SetTrace attaches a recorder under component "link/<name>". Frame
// enqueue/deliver/drop events are emitted only in detail mode; because the
// simulator carries the ambient causal context across the delivery
// callback, they attach to the segment-journey span of the frame's sender.
func (l *Link) SetTrace(tracer *trace.Recorder, name string) {
	l.tracer = tracer
	l.name = "link/" + name
}

// SetLossRate changes the random loss probability.
func (l *Link) SetLossRate(p float64) { l.cfg.LossRate = p }

// SetExtraDelay adds d of one-way propagation delay on top of the
// configured Delay, in both directions, until called again (0 restores the
// configured latency). It models a transient latency burst — congestion
// elsewhere on the path — without touching the link's serialization rate.
func (l *Link) SetExtraDelay(d time.Duration) { l.extraDelay = d }

// DropFromBFor drops all frames transmitted by endpoint B for d, modelling
// a temporary local failure (paper Table 1 row 5: buffer overflow, transient
// NIC trouble) — on a switch link, every frame the switch sends the host. A
// window already open beyond d stands: a second, shorter drop must not cut
// the first one short.
func (l *Link) DropFromBFor(d time.Duration) {
	till := l.sim.Elapsed() + d
	if d > 0 && till < 0 {
		till = math.MaxInt64 // a window that outlasts the clock is forever, not a wrap into the past
	}
	if till > l.b.dropTill {
		l.b.dropTill = till
	}
}

// SetCutFromA cuts (or restores) only the A→B direction, indefinitely.
// The reverse direction keeps working: this is the asymmetric partition
// of the gray fault model, where one side hears the other but not vice
// versa. Distinct from the timed DropFromBFor window, a cut holds until
// explicitly restored. Frames are judged as they are sent: a frame already
// on the wire when the cut comes still arrives.
func (l *Link) SetCutFromA(cut bool) { l.a.cut = cut }

// SetCutFromB cuts (or restores) only the B→A direction, indefinitely.
func (l *Link) SetCutFromB(cut bool) { l.b.cut = cut }

// SetCorruptRate makes the link flip one random bit in each frame with
// probability p (both directions). Corrupted frames are still delivered;
// the receiver's integrity checks (Ethernet/TCP checksums) must catch
// them. Zero disables corruption.
func (l *Link) SetCorruptRate(p float64) { l.corruptRate = p }

// seal writes every checksum frame may carry: an IPv4 packet's (ip.Seal),
// then the FCS over them.
func seal(frame []byte) {
	if f, err := eth.Parse(frame); err == nil && f.Type == eth.TypeIPv4 {
		ip.Seal(f.Payload)
	}
	eth.Seal(frame)
}

// TransmitFromA sends frame from endpoint A toward endpoint B, and takes
// it (see transmit). The frame carries no verdict: a receiver checks
// everything in it, its FCS first.
func (l *Link) TransmitFromA(frame []byte) { l.transmit(l.a, frame, false) }

// TransmitFromB sends frame from endpoint B toward endpoint A, and takes
// it.
func (l *Link) TransmitFromB(frame []byte) { l.transmit(l.b, frame, false) }

// transmit sends frame, normally a buffer from the link's pool, from side
// toward its peer. The link takes the frame: it holds it in flight and
// hands it to the peer, or on a drop returns it to the pool at once. fcsOK
// is the frame's verdict (see Endpoint): true from a NIC's Transmit and
// from a switch forwarding an intact frame.
func (l *Link) transmit(side *linkSide, frame []byte, fcsOK bool) {
	if side.peer == nil && side.port == nil {
		l.pool.put(frame)
		return
	}
	now := l.sim.Elapsed()
	if side.cut || now < side.dropTill {
		l.drop(frame, "cut/drop-window")
		return
	}
	if l.cfg.LossRate > 0 && l.sim.Rand().Float64() < l.cfg.LossRate {
		l.drop(frame, "random loss")
		return
	}
	start := now
	if start < side.nextFree {
		start = side.nextFree
	}
	l.mQueue.Observe(start - now)
	if l.tracer.Detail() {
		l.tracer.EmitValue(trace.KindNetEnqueue, l.name, int64(len(frame)),
			"enqueue %dB, wire free in %v", len(frame), start-now)
	}
	var txTime time.Duration
	if l.cfg.BitsPerSecond > 0 {
		bits := int64(len(frame)) * 8
		txTime = time.Duration(bits * int64(time.Second) / l.cfg.BitsPerSecond)
	}
	side.nextFree = start + txTime
	arrival := side.nextFree + l.cfg.Delay + l.extraDelay + side.dwell
	if l.cfg.Jitter > 0 {
		arrival += time.Duration(l.sim.Rand().Int63n(int64(l.cfg.Jitter)))
	}
	if l.corruptRate > 0 && l.sim.Rand().Float64() < l.corruptRate {
		// A frame in flight is never written: flip one bit of a copy,
		// which carries no verdict, and let the original go. An intact
		// frame's sums may be unwritten, so the copy is sealed first: the
		// damaged frame rides to the receiver with the sums its sender's
		// full encoders would have written, and the FCS check must reject
		// it.
		bit := l.sim.Rand().Int63n(int64(len(frame)) * 8)
		damaged := append(l.pool.get(0), frame...)
		if fcsOK {
			seal(damaged)
		}
		l.pool.put(frame)
		frame, fcsOK = damaged, false
		frame[bit/8] ^= 1 << (bit % 8)
		l.Corrupted++
		if l.tracer.Detail() {
			l.tracer.EmitValue(trace.KindNetDrop, l.name, int64(len(frame)),
				"corrupt %dB: bit %d flipped", len(frame), bit)
		}
	}
	d := l.takeDelivery()
	d.frame = frame
	d.fcsOK = fcsOK
	d.arrival = arrival
	d.ctx = l.sim.Context()
	l.enqueue(side, d)
}

// enqueue inserts d into side's in-flight queue, keeping pending[head:]
// sorted by arrival (a stable insert: jitter may reorder frames, and
// frames with equal arrivals keep transmit order). The timer re-arms
// only when d became the new earliest arrival.
func (l *Link) enqueue(side *linkSide, d *delivery) {
	p := side.pending
	// Without jitter arrivals are monotone and this scan is zero
	// iterations; with jitter it is bounded by the frames inside one
	// jitter window.
	i := len(p)
	for i > side.head && p[i-1].arrival > d.arrival {
		i--
	}
	p = append(p, nil)
	copy(p[i+1:], p[i:])
	p[i] = d
	side.pending = p
	if i == side.head {
		side.timer.Arm(d.arrival - l.sim.Elapsed())
	}
}

// drain delivers every frame whose arrival is due and re-arms the timer
// for the next one. Delivering a frame can transmit new frames on this
// same side (zero-delay topologies), so the bounds are re-read each
// iteration.
func (l *Link) drain(side *linkSide) {
	now := l.sim.Elapsed()
	for side.head < len(side.pending) {
		d := side.pending[side.head]
		if d.arrival > now {
			break
		}
		side.pending[side.head] = nil
		side.head++
		l.deliverNow(side, d)
	}
	if side.head > 0 && side.head*2 >= len(side.pending) {
		n := copy(side.pending, side.pending[side.head:])
		for i := n; i < len(side.pending); i++ {
			side.pending[i] = nil
		}
		side.pending = side.pending[:n]
		side.head = 0
	}
	if side.head < len(side.pending) {
		side.timer.Arm(side.pending[side.head].arrival - now)
	}
}

// deliverNow completes one delivery: the frame is handed to side's peer
// under the sender's causal context, and the record and buffer return to
// their pools — the buffer unless the peer is a switch port, which keeps
// it.
func (l *Link) deliverNow(side *linkSide, d *delivery) {
	frame, fcsOK, ctx := d.frame, d.fcsOK, d.ctx
	if len(l.deliveries) < poolFrames {
		*d = delivery{}
		l.deliveries = append(l.deliveries, d)
	}
	prev := l.sim.Context()
	l.sim.SetContext(ctx)
	l.Delivered++
	l.mFrames.Inc()
	if l.tracer.Detail() {
		l.tracer.EmitValue(trace.KindNetDeliver, l.name, int64(len(frame)), "deliver %dB", len(frame))
	}
	if side.port != nil {
		side.port.take(frame, fcsOK)
	} else {
		side.peer.DeliverFrame(frame, fcsOK)
		l.pool.put(frame)
	}
	l.sim.SetContext(prev)
}

// drop counts a frame lost on the wire and returns it to the pool.
func (l *Link) drop(frame []byte, why string) {
	l.Drops++
	l.mDrops.Inc()
	if l.tracer.Detail() {
		l.tracer.EmitValue(trace.KindNetDrop, l.name, int64(len(frame)), "drop %dB: %s", len(frame), why)
	}
	l.pool.put(frame)
}
