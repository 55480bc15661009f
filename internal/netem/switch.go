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
// both servers at once.
type Switch struct {
	sim      *sim.Simulator
	name     string
	ports    []*SwitchPort
	macTable map[eth.Addr]int          // learned unicast address → port index
	groups   map[eth.Addr]map[int]bool // multicast address → member ports
	latency  time.Duration

	// Forwarded counts frame copies sent out of ports.
	Forwarded int64
	// Flooded counts frames forwarded by flooding.
	Flooded int64

	// Frame buffers and forward records are pooled: a frame is copied out
	// of the link's buffer on ingress (the link reclaims its buffer when
	// DeliverFrame returns) and the copy is returned to the switch's pool
	// once forwarded out of the egress ports, which copy synchronously.
	pool bufPool
	jobs []*fwdJob
}

// fwdJob is one frame waiting out the store-and-forward latency. run is
// bound once at record construction so recycled jobs re-post without
// allocating.
type fwdJob struct {
	sw      *Switch
	ingress int
	dst     eth.Addr
	buf     []byte
	run     func()
}

func (s *Switch) takeJob() *fwdJob {
	if n := len(s.jobs); n > 0 {
		j := s.jobs[n-1]
		s.jobs[n-1] = nil
		s.jobs = s.jobs[:n-1]
		return j
	}
	j := &fwdJob{sw: s}
	j.run = j.fire
	return j
}

func (j *fwdJob) fire() {
	sw := j.sw
	ingress, dst, buf := j.ingress, j.dst, j.buf
	j.buf = nil
	sw.jobs = append(sw.jobs, j)
	sw.forward(ingress, dst, buf)
	sw.pool.put(buf)
}

// SwitchPort is one port of a switch; it implements Endpoint so a Link can
// deliver into it.
type SwitchPort struct {
	sw    *Switch
	index int
	link  *Link
	sideA bool
}

// NewSwitch creates a switch with the given forwarding latency per frame.
func NewSwitch(s *sim.Simulator, name string, latency time.Duration) *Switch {
	return &Switch{
		sim:      s,
		name:     name,
		macTable: make(map[eth.Addr]int),
		groups:   make(map[eth.Addr]map[int]bool),
		latency:  latency,
	}
}

// Name returns the switch's trace name.
func (s *Switch) Name() string { return s.name }

// AddPort creates a new port and returns it; wire it to a link with
// (*SwitchPort).AttachToLink.
func (s *Switch) AddPort() *SwitchPort {
	p := &SwitchPort{sw: s, index: len(s.ports)}
	s.ports = append(s.ports, p)
	return p
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

// AttachToLink binds the port to one side of a link.
func (p *SwitchPort) AttachToLink(l *Link, sideA bool) {
	p.link = l
	p.sideA = sideA
}

// DeliverFrame implements Endpoint: a frame arrived on this port.
func (p *SwitchPort) DeliverFrame(buf []byte) {
	sw := p.sw
	f, err := eth.Decode(buf)
	if err != nil {
		return // corrupt frame: a real switch would drop it too
	}
	if !f.Src.IsMulticast() {
		sw.macTable[f.Src] = p.index
	}
	// Store-and-forward: copy into the switch's own pooled buffer (the
	// link reclaims buf when this call returns), wait out the latency,
	// then forward the original encoded bytes.
	cp := sw.pool.get(len(buf))
	copy(cp, buf)
	j := sw.takeJob()
	j.ingress = p.index
	j.dst = f.Dst
	j.buf = cp
	sw.sim.Post(sw.latency, j.run)
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
	p := s.ports[port]
	if p.link == nil {
		return
	}
	s.Forwarded++
	if p.sideA {
		p.link.TransmitFromA(buf)
	} else {
		p.link.TransmitFromB(buf)
	}
}

var _ Endpoint = (*SwitchPort)(nil)

// Connect is a convenience that creates a link with cfg and wires endpoint e
// to a fresh port on the switch. It returns the link so tests can inject
// faults on it. The endpoint transmits from side A; the switch port from
// side B.
func Connect(s *sim.Simulator, sw *Switch, e Endpoint, cfg LinkConfig) (*Link, *SwitchPort) {
	l := NewLink(s, cfg)
	port := sw.AddPort()
	l.Attach(e, port)
	port.AttachToLink(l, false)
	if nic, ok := e.(*NIC); ok {
		nic.AttachToLink(l, true)
	}
	return l, port
}
