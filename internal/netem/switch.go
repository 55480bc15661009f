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
	macTable map[uint64]int    // learned unicast address (addrKey) → port index
	groups   map[uint64][]bool // multicast address (addrKey) → membership by port index
	latency  time.Duration

	// pool is the frame pool of every link Connect makes, and so of every
	// NIC on them: a frame goes back to the pool it came from, whichever
	// link lets it go.
	pool *bufPool

	// Forwarded counts frame copies sent out of ports.
	Forwarded int64
	// Flooded counts frames forwarded by flooding.
	Flooded int64
}

// SwitchPort is one port of a switch, the far end of the link Connect made
// for it.
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
		macTable: make(map[uint64]int),
		groups:   make(map[uint64][]bool),
		latency:  latency,
		pool:     &bufPool{},
	}
}

// JoinGroup adds port p to the multicast group g (static group membership,
// standing in for IGMP snooping / static switch configuration).
func (s *Switch) JoinGroup(g eth.Addr, p *SwitchPort) {
	m := s.groups[addrKey(g)]
	for len(m) <= p.index {
		m = append(m, false)
	}
	m[p.index] = true
	s.groups[addrKey(g)] = m
}

// take receives a frame that arrived on this port and has waited out the
// switch's latency on the link. The port keeps the buffer the link
// delivered: the switch verifies its FCS, the one check it gets, and hands
// it to the egress links, or drops it back into the pool.
func (p *SwitchPort) take(buf []byte) {
	sw := p.sw
	f, err := eth.Decode(buf)
	if err != nil {
		sw.pool.put(buf) // corrupt frame: a real switch would drop it too
		return
	}
	if !f.Src.IsMulticast() {
		src := addrKey(f.Src)
		if at, ok := sw.macTable[src]; !ok || at != p.index {
			sw.macTable[src] = p.index // a lookup is cheaper than a store per frame
		}
	}
	sw.forward(p.index, f.Dst, buf)
}

// forward sends buf out of every port dst reaches from ingress, in port
// order, each with the verdict the switch just gave. A frame has one owner
// at a time: each egress port is sent a copy once the next one is found,
// and the last gets buf itself, so every copy is taken from bytes no link
// has yet let go.
func (s *Switch) forward(ingress int, dst eth.Addr, buf []byte) {
	last := -1
	switch {
	case dst.IsBroadcast():
		last = s.flood(ingress, buf)
	case dst.IsMulticast():
		members, ok := s.groups[addrKey(dst)]
		if !ok {
			// Unknown multicast floods, like a switch without
			// snooping state.
			last = s.flood(ingress, buf)
			break
		}
		for i := range s.ports {
			if i != ingress && i < len(members) && members[i] {
				last = s.egress(last, i, buf)
			}
		}
	default:
		if port, ok := s.macTable[addrKey(dst)]; ok {
			if port != ingress {
				last = port
			}
			break
		}
		last = s.flood(ingress, buf)
	}
	if last < 0 {
		s.pool.put(buf)
		return
	}
	s.send(last, buf)
}

// egress makes port the frame's latest egress port, sending prev, the one
// found before it if any, a copy of buf.
func (s *Switch) egress(prev, port int, buf []byte) int {
	if prev >= 0 {
		s.send(prev, append(s.pool.get(0), buf...))
	}
	return port
}

// flood makes every port but ingress an egress port and returns the last.
func (s *Switch) flood(ingress int, buf []byte) int {
	s.Flooded++
	last := -1
	for i := range s.ports {
		if i != ingress {
			last = s.egress(last, i, buf)
		}
	}
	return last
}

// send transmits frame out of port with the switch's verdict.
func (s *Switch) send(port int, frame []byte) {
	s.Forwarded++
	l := s.ports[port].link
	l.transmit(l.b, frame, true)
}

// Connect creates a link with cfg and wires endpoint e to a fresh port on
// the switch; it is the one place a switch port meets a link. It returns
// the link so tests can inject faults on it. The endpoint transmits from
// side A, and every frame it sends reaches the port the switch's latency
// after its last bit: the dwell stands in for the switch's own event. The
// port keeps each frame the link delivers, rather than the link taking it
// back, and transmits from side B. The link draws on the switch's frame
// pool, which keeps poolFrames more for it.
func Connect(s *sim.Simulator, sw *Switch, e Endpoint, cfg LinkConfig) (*Link, *SwitchPort) {
	l := NewLink(s, cfg)
	l.pool = sw.pool
	sw.pool.limit += poolFrames
	port := &SwitchPort{sw: sw, index: len(sw.ports), link: l}
	sw.ports = append(sw.ports, port)
	l.Attach(e, nil)
	l.a.port = port
	l.a.dwell = sw.latency
	if nic, ok := e.(*NIC); ok {
		nic.AttachToLink(l, true)
	}
	return l, port
}

// addrKey packs an Ethernet address into a map key that hashes as one word.
func addrKey(a eth.Addr) uint64 {
	return uint64(a[0])<<40 | uint64(a[1])<<32 | uint64(a[2])<<24 | uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
}
