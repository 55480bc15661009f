package netem

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/eth"
	"repro/internal/sim"
)

// ErrNICDown is returned when transmitting through a failed or detached NIC.
var ErrNICDown = errors.New("netem: NIC down")

// NIC is a simulated network interface card. It filters received frames by
// destination address (own unicast, broadcast, joined multicast groups, or
// everything when promiscuous) and supports fail/recover fault injection:
// a failed NIC neither transmits nor receives, exactly the symptom Demo 5
// of the paper injects.
type NIC struct {
	sim     *sim.Simulator
	name    string
	addr    eth.Addr
	link    *Link
	sideA   bool
	groups  []eth.Addr // joined multicast groups: a NIC joins one or two
	promisc bool
	failed  bool
	handler func(eth.Frame)

	// Counters for the tap-ablation experiment (paper §3 observes the
	// backup NIC overload when it taps both traffic directions).
	RxFrames int64
	RxBytes  int64
	TxFrames int64
	TxBytes  int64
	RxDrops  int64
}

// NewNIC creates a NIC with the given stable name (for traces) and address.
func NewNIC(s *sim.Simulator, name string, addr eth.Addr) *NIC {
	return &NIC{
		sim:  s,
		name: name,
		addr: addr,
	}
}

// Addr returns the NIC's unicast Ethernet address.
func (n *NIC) Addr() eth.Addr { return n.addr }

// AttachToLink binds the NIC to one side of a link. sideA selects which of
// the link's two sides this NIC transmits from.
func (n *NIC) AttachToLink(l *Link, sideA bool) {
	n.link = l
	n.sideA = sideA
}

// JoinGroup subscribes the NIC to a multicast Ethernet address. The ST-TCP
// servers join the service's multiEA group so both receive client frames.
func (n *NIC) JoinGroup(g eth.Addr) {
	if !slices.Contains(n.groups, g) {
		n.groups = append(n.groups, g)
	}
}

// SetPromiscuous toggles delivery of all frames regardless of destination.
// The pre-enhancement ST-TCP backup ran its tap NIC promiscuously to also
// observe primary→client traffic.
func (n *NIC) SetPromiscuous(p bool) { n.promisc = p }

// SetHandler registers the receive callback; it runs on the event loop. The
// frame's Payload is the received frame's own bytes — the one buffer its
// sender's stack wrote — lent until h returns, when the link takes it back
// into its pool.
func (n *NIC) SetHandler(h func(eth.Frame)) { n.handler = h }

// Fail makes the NIC silently drop everything in both directions.
func (n *NIC) Fail() { n.failed = true }

// Recover restores a failed NIC.
func (n *NIC) Recover() { n.failed = false }

// Failed reports whether the NIC is failed.
func (n *NIC) Failed() bool { return n.failed }

// NewFrame returns an outbound frame of length headroom, at least
// eth.HeaderLen, from the frame pool of the NIC's link, with capacity for a
// full-size frame. The first eth.HeaderLen bytes are Transmit's to write;
// the caller appends the payload behind the rest, and the frame is its own
// until it hands it to Transmit.
func (n *NIC) NewFrame(headroom int) []byte {
	var p *bufPool
	if n.link != nil {
		p = n.link.pool
	}
	return p.get(headroom)
}

// Transmit seals frame, a frame from NewFrame whose payload is in place
// behind its header, with the header for dst and t, the NIC's own source
// address and the FCS, and hands it to the link, which takes it: the
// caller must not touch it again, whatever Transmit returns.
func (n *NIC) Transmit(dst eth.Addr, t eth.EtherType, frame []byte) error {
	if n.link == nil {
		return fmt.Errorf("%w: %s not attached", ErrNICDown, n.name)
	}
	if n.failed {
		n.link.pool.put(frame)
		return ErrNICDown
	}
	if payload := len(frame) - eth.HeaderLen; payload > eth.MaxPayload {
		n.link.pool.put(frame)
		return fmt.Errorf("netem: %s encode: %w: %d bytes", n.name, eth.ErrFrameTooLong, payload)
	}
	frame = append(frame, 0, 0, 0, 0) // the FCS
	eth.Seal(frame, dst, n.addr, t)
	n.TxFrames++
	n.TxBytes += int64(len(frame))
	if n.sideA {
		n.link.TransmitFromA(frame)
	} else {
		n.link.TransmitFromB(frame)
	}
	return nil
}

// Send copies f's payload into a new frame and transmits it. The source
// address is always the NIC's own.
func (n *NIC) Send(f eth.Frame) error {
	return n.Transmit(f.Dst, f.Type, append(n.NewFrame(eth.HeaderLen), f.Payload...))
}

// DeliverFrame implements Endpoint. It checks the FCS unless the switch
// verified these very bytes; the race build checks anyway, and panics if a
// verdict it was handed is wrong.
func (n *NIC) DeliverFrame(buf []byte, fcsOK bool) {
	if n.failed {
		n.RxDrops++
		return
	}
	var f eth.Frame
	var err error
	if fcsOK {
		if f, err = eth.Parse(buf); err == nil && recheckFCS {
			if _, bad := eth.Decode(buf); bad != nil {
				panic(fmt.Sprintf("netem: %s was handed an FCS verdict its bytes do not bear: %v", n.name, bad))
			}
		}
	} else {
		f, err = eth.Decode(buf)
	}
	if err != nil {
		n.RxDrops++
		return
	}
	if !n.accepts(f.Dst) {
		n.RxDrops++
		return
	}
	n.RxFrames++
	n.RxBytes += int64(len(buf))
	if n.handler != nil {
		n.handler(f)
	}
}

func (n *NIC) accepts(dst eth.Addr) bool {
	if n.promisc {
		return true
	}
	if dst == n.addr || dst.IsBroadcast() {
		return true
	}
	return dst.IsMulticast() && slices.Contains(n.groups, dst)
}

var _ Endpoint = (*NIC)(nil)
