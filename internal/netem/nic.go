package netem

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/eth"
	"repro/internal/ip"
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

// SetHandler registers the receive callback; it runs on the event loop.
// The frame's Payload is the received frame's own bytes — the one buffer
// its sender's stack wrote — lent until h returns, when the link takes it
// back into its pool. h sees only frames DeliverFrame found intact, and no
// verdict: an IPv4 packet's header and TCP or UDP sums hold, whether or not
// they were written.
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

// Transmit writes the header of frame, a frame from NewFrame whose payload
// is in place behind it, for dst and t and the NIC's own source address,
// and hands it to the link with an intact verdict. The link takes it: the
// caller must not touch it again, whatever Transmit returns. The FCS, and
// an IPv4 packet's checksums, are written only in the race build; a
// corrupting link seals the copy it damages (see Link.transmit).
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
	eth.PutHeader(frame, dst, n.addr, t)
	if RecheckVerdicts {
		seal(frame)
	}
	n.TxFrames++
	n.TxBytes += int64(len(frame))
	side := n.link.b
	if n.sideA {
		side = n.link.a
	}
	n.link.transmit(side, frame, true)
	return nil
}

// Send copies f's payload into a new frame and transmits it. The source
// address is always the NIC's own.
func (n *NIC) Send(f eth.Frame) error {
	return n.Transmit(f.Dst, f.Type, append(n.NewFrame(eth.HeaderLen), f.Payload...))
}

// DeliverFrame implements Endpoint. It is where a frame's integrity is
// decided: a frame without an intact verdict has its FCS checked and then,
// if it carries IPv4, its header and TCP or UDP sums (ip.Verify); one that
// fails counts in RxDrops. Nothing above the NIC sees a verdict.
func (n *NIC) DeliverFrame(buf []byte, fcsOK bool) {
	if n.failed {
		n.RxDrops++
		return
	}
	f, err := readFrame(n.name, buf, fcsOK)
	if err == nil && (!fcsOK || RecheckVerdicts) && f.Type == eth.TypeIPv4 {
		err = verifyPacket(n.name, f.Payload, fcsOK)
	}
	if err != nil || !n.accepts(f.Dst) {
		n.RxDrops++
		return
	}
	n.RxFrames++
	n.RxBytes += int64(len(buf))
	if n.handler != nil {
		n.handler(f)
	}
}

// readFrame parses buf as who received it: a frame with an intact verdict
// without its FCS, which may be unwritten, and any other with it. The race
// build checks the FCS of an intact frame too, and panics if a verdict it
// was handed is wrong.
func readFrame(who string, buf []byte, fcsOK bool) (eth.Frame, error) {
	if !fcsOK {
		return eth.Decode(buf)
	}
	f, err := eth.Parse(buf)
	if err == nil && RecheckVerdicts {
		if _, bad := eth.Decode(buf); bad != nil {
			panic(fmt.Sprintf("netem: %s was handed an FCS verdict its bytes do not bear: %v", who, bad))
		}
	}
	return f, err
}

// verifyPacket checks the sums of pkt, the IPv4 packet of a frame whose
// FCS holds (ip.Verify). With an intact verdict it runs only in the race
// build, which sealed the frame as it was sent: there every sum must hold
// and a datagram must carry one, or who panics.
func verifyPacket(who string, pkt []byte, fcsOK bool) error {
	err := ip.Verify(pkt)
	if !fcsOK {
		return err
	}
	if p, _ := ip.Parse(pkt); err == nil && p.Proto == ip.ProtoUDP && p.Payload[6]|p.Payload[7] == 0 {
		err = errors.New("udp: no checksum")
	}
	if err != nil {
		panic(fmt.Sprintf("netem: %s was handed an intact verdict its packet does not bear: %v", who, err))
	}
	return nil
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
