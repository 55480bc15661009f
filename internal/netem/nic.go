package netem

import (
	"errors"
	"fmt"

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
	groups  map[eth.Addr]bool
	promisc bool
	failed  bool
	handler func(eth.Frame)
	encBuf  []byte // reusable frame-encoding scratch; the link copies synchronously

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
		sim:    s,
		name:   name,
		addr:   addr,
		groups: make(map[eth.Addr]bool),
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
func (n *NIC) JoinGroup(g eth.Addr) { n.groups[g] = true }

// SetPromiscuous toggles delivery of all frames regardless of destination.
// The pre-enhancement ST-TCP backup ran its tap NIC promiscuously to also
// observe primary→client traffic.
func (n *NIC) SetPromiscuous(p bool) { n.promisc = p }

// SetHandler registers the receive callback; it runs on the event loop. The
// frame's Payload is the link's pooled buffer, valid only until h returns.
func (n *NIC) SetHandler(h func(eth.Frame)) { n.handler = h }

// Fail makes the NIC silently drop everything in both directions.
func (n *NIC) Fail() { n.failed = true }

// Recover restores a failed NIC.
func (n *NIC) Recover() { n.failed = false }

// Failed reports whether the NIC is failed.
func (n *NIC) Failed() bool { return n.failed }

// Send encodes and transmits a frame. The source address is forced to the
// NIC's own address.
func (n *NIC) Send(f eth.Frame) error {
	if n.failed {
		return ErrNICDown
	}
	if n.link == nil {
		return fmt.Errorf("%w: %s not attached", ErrNICDown, n.name)
	}
	f.Src = n.addr
	buf, err := f.AppendEncode(n.encBuf[:0])
	if err != nil {
		return fmt.Errorf("netem: %s encode: %w", n.name, err)
	}
	n.encBuf = buf
	n.TxFrames++
	n.TxBytes += int64(len(buf))
	if n.sideA {
		n.link.TransmitFromA(buf)
	} else {
		n.link.TransmitFromB(buf)
	}
	return nil
}

// DeliverFrame implements Endpoint.
func (n *NIC) DeliverFrame(buf []byte) {
	if n.failed {
		n.RxDrops++
		return
	}
	f, err := eth.Decode(buf)
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
	return dst.IsMulticast() && n.groups[dst]
}

var _ Endpoint = (*NIC)(nil)
