package netem

import (
	"time"

	"repro/internal/eth"
	"repro/internal/sim"
)

// Switch is a store-and-forward Ethernet switch. It learns unicast
// source addresses per port, floods broadcast and unknown unicast, and
// forwards frames addressed to a configured multicast group to every member
// port — the mechanism the ST-TCP testbed uses to deliver client frames to
// both servers at once. Its forwarding latency is not an event of its own:
// Connect adds it to every arrival on the link into the port, and the port
// forwards as the frame is delivered.
type Switch struct {
	ports    []*SwitchPort
	macTable map[eth.Addr]int          // learned unicast address → port index
	groups   map[eth.Addr]map[int]bool // multicast address → member ports
	latency  time.Duration

	// Forwarded counts frame copies sent out of ports.
	Forwarded int64
	// Flooded counts frames forwarded by flooding.
	Flooded int64
}

// SwitchPort is one port of a switch, the B side of the link Connect made
// for it; it implements Endpoint so that link can deliver into it.
type SwitchPort struct {
	sw    *Switch
	index int
	link  *Link
}

// NewSwitch creates a switch with the given forwarding latency per frame. It
// takes the simulator like every netem constructor but schedules nothing,
// and a name for its callers' reading; it keeps neither.
func NewSwitch(_ *sim.Simulator, _ string, latency time.Duration) *Switch {
	return &Switch{
		macTable: make(map[eth.Addr]int),
		groups:   make(map[eth.Addr]map[int]bool),
		latency:  latency,
	}
}

// JoinGroup adds port p to the multicast group g (static group membership,
// standing in for IGMP snooping / static switch configuration).
func (s *Switch) JoinGroup(g eth.Addr, p *SwitchPort) {
	m, ok := s.groups[g]
	if !ok {
		m = make(map[int]bool)
		s.groups[g] = m
	}
	m[p.index] = true
}

// DeliverFrame implements Endpoint: a frame arrived on this port and has
// waited out the switch's latency on the link, so it is forwarded now, the
// original encoded bytes lent to the egress links, which copy.
func (p *SwitchPort) DeliverFrame(buf []byte) {
	sw := p.sw
	f, err := eth.Decode(buf)
	if err != nil {
		return // corrupt frame: a real switch would drop it too
	}
	if !f.Src.IsMulticast() {
		sw.macTable[f.Src] = p.index
	}
	sw.forward(p.index, f.Dst, buf)
}

func (s *Switch) forward(ingress int, dst eth.Addr, buf []byte) {
	switch {
	case dst.IsBroadcast():
		s.flood(ingress, buf)
	case dst.IsMulticast():
		members, ok := s.groups[dst]
		if !ok {
			// Unknown multicast floods, like a switch without
			// snooping state.
			s.flood(ingress, buf)
			return
		}
		for i := range s.ports {
			if i != ingress && members[i] {
				s.transmit(i, buf)
			}
		}
	default:
		if out, ok := s.macTable[dst]; ok {
			if out != ingress {
				s.transmit(out, buf)
			}
			return
		}
		s.flood(ingress, buf)
	}
}

func (s *Switch) flood(ingress int, buf []byte) {
	s.Flooded++
	for i := range s.ports {
		if i != ingress {
			s.transmit(i, buf)
		}
	}
}

func (s *Switch) transmit(port int, buf []byte) {
	s.Forwarded++
	s.ports[port].link.TransmitFromB(buf)
}

var _ Endpoint = (*SwitchPort)(nil)

// Connect creates a link with cfg and wires endpoint e to a fresh port on
// the switch; it is the one place a switch port meets a link. It returns
// the link so tests can inject faults on it. The endpoint transmits from
// side A, and every frame it sends reaches the port the switch's latency
// after its last bit: the dwell stands in for the switch's own event. The
// switch port transmits from side B.
func Connect(s *sim.Simulator, sw *Switch, e Endpoint, cfg LinkConfig) (*Link, *SwitchPort) {
	l := NewLink(s, cfg)
	port := &SwitchPort{sw: sw, index: len(sw.ports), link: l}
	sw.ports = append(sw.ports, port)
	l.Attach(e, port)
	l.a.dwell = sw.latency
	if nic, ok := e.(*NIC); ok {
		nic.AttachToLink(l, true)
	}
	return l, port
}
