// Package netstack implements a per-host IPv4 stack over a simulated NIC:
// ARP resolution (with the static entries the ST-TCP testbed depends on),
// IP send/receive with alias addresses ("VNICs" created via IP aliasing in
// the paper's Figure 2), an ICMP echo responder and ping client, and UDP
// endpoints. TCP is layered on top by internal/tcp through RegisterTCP.
package netstack

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/arp"
	"repro/internal/eth"
	"repro/internal/icmp"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/udp"
)

// Stack errors.
var (
	ErrPortInUse   = errors.New("netstack: UDP port already bound")
	ErrPingPending = errors.New("netstack: ping with this ID already pending")
)

// UDPHandler receives datagrams delivered to a bound UDP port; payload is
// the received frame's, valid only until the handler returns.
type UDPHandler func(src ip.Addr, srcPort uint16, payload []byte)

// TCPHandler receives raw TCP segments (the IP payload) for the host;
// pkt.Payload is the received frame's, valid only until the handler returns.
// The NIC has decided the segment's integrity (see netem.NIC.SetHandler), so
// the handler parses it without its checksum.
type TCPHandler func(pkt ip.Packet)

// pendingPacket is an outbound frame waiting for ARP: the transport's
// packet is in place behind its headroom, the IP and Ethernet headers not
// yet written.
type pendingPacket struct {
	src   ip.Addr
	proto ip.Protocol
	frame []byte
}

// arpRetryInterval and arpMaxAttempts govern ARP request retransmission: a
// lost reply must not blackhole the destination until traffic stops.
const (
	arpRetryInterval = 400 * time.Millisecond
	arpMaxAttempts   = 5
	arpQueueCap      = 64
)

type arpWaiter struct {
	packets  []pendingPacket
	attempts int
	timer    *sim.Timer
}

type pendingPing struct {
	timer *sim.Timer
	done  func(ok bool, rtt time.Duration)
	sent  time.Time
}

// Stack is one host's IPv4 stack. All methods must be called on the
// simulation event loop.
type Stack struct {
	sim     *sim.Simulator
	clock   *sim.Clock // the host's: ARP retries and ping timeouts arm here
	name    string
	nic     *netem.NIC
	addr    ip.Addr
	aliases map[ip.Addr]bool

	arpTable   *arp.Table
	arpPending map[ip.Addr]*arpWaiter

	udpHandlers map[uint16]UDPHandler
	tcpHandler  TCPHandler

	pings      map[uint16]*pendingPing
	nextPingID uint16
	nextIPID   uint16
}

// New creates a stack bound to nic with primary address addr and installs
// itself as the NIC's frame handler. Its timers arm on the host's clock.
func New(clock *sim.Clock, name string, nic *netem.NIC, addr ip.Addr) *Stack {
	st := &Stack{
		sim:         clock.Sim(),
		clock:       clock,
		name:        name,
		nic:         nic,
		addr:        addr,
		aliases:     make(map[ip.Addr]bool),
		arpTable:    arp.NewTable(),
		arpPending:  make(map[ip.Addr]*arpWaiter),
		udpHandlers: make(map[uint16]UDPHandler),
		pings:       make(map[uint16]*pendingPing),
		nextPingID:  1,
	}
	st.arpTable.AddStatic(addr, nic.Addr())
	nic.SetHandler(st.handleFrame)
	return st
}

// Addr returns the primary IP address.
func (s *Stack) Addr() ip.Addr { return s.addr }

// ARP exposes the ARP table so topologies can pin static entries, notably
// serviceIP → multiEA on the client/gateway (paper Figure 2).
func (s *Stack) ARP() *arp.Table { return s.arpTable }

// AddAlias adds a secondary (VNIC) address. ST-TCP assigns the serviceIP
// alias on both the primary and the backup.
func (s *Stack) AddAlias(a ip.Addr) { s.aliases[a] = true }

// HasAddr reports whether a is the primary address or an alias.
func (s *Stack) HasAddr(a ip.Addr) bool { return a == s.addr || s.aliases[a] }

// RegisterTCP installs the handler for inbound TCP segments.
func (s *Stack) RegisterTCP(h TCPHandler) { s.tcpHandler = h }

// --- Sending ---

// Headroom is where a transport's packet starts in a frame from NewFrame:
// behind the Ethernet header the NIC writes and the IP header SendFrame
// writes.
const Headroom = eth.HeaderLen + ip.HeaderLen

// NewFrame returns an outbound frame for a transport to append its packet
// to: Headroom bytes long, with capacity for a full-size frame behind. The
// packet is written once, there, and no layer below copies it.
func (s *Stack) NewFrame() []byte { return s.nic.NewFrame(Headroom) }

// SendFrame transmits the transport packet at frame[Headroom:], a frame
// from NewFrame, from src to dst; the ST-TCP servers source service traffic
// from the shared serviceIP alias. It takes the frame: the IP header is
// written in front of the packet, its checksum zero, and the NIC sends it
// (sealing it where something can read its sums, see netem.Link), or on a
// resolution miss the ARP queue holds it.
func (s *Stack) SendFrame(src, dst ip.Addr, proto ip.Protocol, frame []byte) error {
	hw, ok := s.arpTable.Lookup(dst)
	if !ok {
		s.queueForARP(src, dst, proto, frame)
		return nil
	}
	return s.sendResolved(hw, src, dst, proto, frame)
}

func (s *Stack) sendResolved(hw eth.Addr, src, dst ip.Addr, proto ip.Protocol, frame []byte) error {
	s.nextIPID++
	pkt := ip.Packet{
		ID:    s.nextIPID,
		TTL:   ip.DefaultTTL,
		Proto: proto,
		Src:   src,
		Dst:   dst,
	}
	pkt.PutUnsealedHeader(frame[eth.HeaderLen:])
	if err := s.nic.Transmit(hw, eth.TypeIPv4, frame); err != nil {
		return fmt.Errorf("netstack: %s: %w", s.name, err)
	}
	return nil
}

// queueForARP holds frame until dst resolves. This is the cold path: the
// testbed pins static ARP entries for the hot service traffic.
func (s *Stack) queueForARP(src, dst ip.Addr, proto ip.Protocol, frame []byte) {
	p := pendingPacket{src: src, proto: proto, frame: frame}
	w, waiting := s.arpPending[dst]
	if waiting {
		if len(w.packets) < arpQueueCap {
			w.packets = append(w.packets, p)
		}
		return
	}
	w = &arpWaiter{packets: []pendingPacket{p}}
	s.arpPending[dst] = w
	s.sendARPRequest(dst, w)
}

// sendARP transmits an ARP packet to dst, written in place behind the
// Ethernet header.
func (s *Stack) sendARP(dst eth.Addr, p arp.Packet) {
	_ = s.nic.Transmit(dst, eth.TypeARP, p.AppendEncode(s.nic.NewFrame(eth.HeaderLen)))
}

func (s *Stack) sendARPRequest(dst ip.Addr, w *arpWaiter) {
	w.attempts++
	req := arp.Packet{
		Op:       arp.OpRequest,
		SenderHW: s.nic.Addr(),
		SenderIP: s.addr,
		TargetIP: dst,
	}
	s.sendARP(eth.Broadcast, req)
	// Retry: a single lost reply must not blackhole the destination.
	w.timer = s.clock.AfterFunc(arpRetryInterval, func() {
		if s.arpPending[dst] != w {
			return
		}
		if w.attempts >= arpMaxAttempts {
			delete(s.arpPending, dst) // unresolvable: drop the queue
			return
		}
		s.sendARPRequest(dst, w)
	})
}

// --- UDP ---

// UDPListen binds a handler to a local UDP port.
func (s *Stack) UDPListen(port uint16, h UDPHandler) error {
	if _, ok := s.udpHandlers[port]; ok {
		return fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	s.udpHandlers[port] = h
	return nil
}

// UDPClose releases a bound port.
func (s *Stack) UDPClose(port uint16) { delete(s.udpHandlers, port) }

// UDPSend transmits a datagram from srcPort to dst:dstPort, written into
// its frame without its checksum, so a caller may pass a buffer it reuses.
func (s *Stack) UDPSend(srcPort uint16, dst ip.Addr, dstPort uint16, payload []byte) error {
	d := udp.Datagram{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	return s.SendFrame(s.addr, dst, ip.ProtoUDP, d.AppendUnsealed(s.NewFrame()))
}

// --- ICMP ping ---

// Ping sends an echo request to dst and calls done exactly once: with
// ok=true and the measured RTT when the reply arrives, or ok=false at the
// timeout. This is the primitive behind the gateway-ping arbitration of
// paper §4.3.
func (s *Stack) Ping(dst ip.Addr, timeout time.Duration, done func(ok bool, rtt time.Duration)) error {
	id := s.nextPingID
	s.nextPingID++
	if _, ok := s.pings[id]; ok {
		return fmt.Errorf("%w: %d", ErrPingPending, id)
	}
	p := &pendingPing{done: done, sent: s.sim.Now()}
	p.timer = s.clock.AfterFunc(timeout, func() {
		delete(s.pings, id)
		done(false, 0)
	})
	s.pings[id] = p
	echo := icmp.Echo{Type: icmp.TypeEchoRequest, ID: id, Seq: 1}
	if err := s.SendFrame(s.addr, dst, ip.ProtoICMP, echo.AppendEncode(s.NewFrame())); err != nil {
		p.timer.Stop()
		delete(s.pings, id)
		return err
	}
	return nil
}

// --- Receive path ---

func (s *Stack) handleFrame(f eth.Frame) {
	switch f.Type {
	case eth.TypeARP:
		s.handleARP(f)
	case eth.TypeIPv4:
		s.handleIPv4(f)
	}
}

func (s *Stack) handleARP(f eth.Frame) {
	p, err := arp.Decode(f.Payload)
	if err != nil {
		return
	}
	if !p.SenderIP.IsZero() {
		s.arpTable.Learn(p.SenderIP, p.SenderHW)
		s.flushARPQueue(p.SenderIP, p.SenderHW)
	}
	if p.Op != arp.OpRequest {
		return
	}
	// Only the primary address is answered for, never an alias: two ST-TCP
	// servers share the serviceIP alias, and the testbed avoids ARP races
	// by giving the client a static entry instead.
	if p.TargetIP != s.addr {
		return
	}
	reply := arp.Packet{
		Op:       arp.OpReply,
		SenderHW: s.nic.Addr(),
		SenderIP: p.TargetIP,
		TargetHW: p.SenderHW,
		TargetIP: p.SenderIP,
	}
	s.sendARP(p.SenderHW, reply)
}

func (s *Stack) flushARPQueue(addr ip.Addr, hw eth.Addr) {
	w, ok := s.arpPending[addr]
	if !ok {
		return
	}
	delete(s.arpPending, addr)
	w.timer.Stop()
	for _, p := range w.packets {
		_ = s.sendResolved(hw, p.src, addr, p.proto, p.frame)
	}
}

// handleIPv4 reads an IPv4 frame. Its NIC has checked the IP header and
// UDP or TCP sums wherever the bytes can have changed, so they are parsed
// without them (see netem.NIC.DeliverFrame); ICMP, a cold path, writes and
// checks its own checksum.
func (s *Stack) handleIPv4(f eth.Frame) {
	pkt, err := ip.Parse(f.Payload)
	if err != nil || !s.HasAddr(pkt.Dst) {
		return
	}
	switch pkt.Proto {
	case ip.ProtoICMP:
		s.handleICMP(pkt)
	case ip.ProtoUDP:
		s.handleUDP(pkt)
	case ip.ProtoTCP:
		if s.tcpHandler != nil {
			s.tcpHandler(pkt)
		}
	}
}

func (s *Stack) handleICMP(pkt ip.Packet) {
	e, err := icmp.Decode(pkt.Payload)
	if err != nil {
		return
	}
	switch e.Type {
	case icmp.TypeEchoRequest:
		reply := icmp.Echo{Type: icmp.TypeEchoReply, ID: e.ID, Seq: e.Seq, Payload: e.Payload}
		_ = s.SendFrame(pkt.Dst, pkt.Src, ip.ProtoICMP, reply.AppendEncode(s.NewFrame()))
	case icmp.TypeEchoReply:
		p, ok := s.pings[e.ID]
		if !ok {
			return
		}
		delete(s.pings, e.ID)
		p.timer.Stop()
		p.done(true, s.sim.Since(p.sent))
	}
}

func (s *Stack) handleUDP(pkt ip.Packet) {
	d, err := udp.Parse(pkt.Payload)
	if err != nil {
		return
	}
	if h, ok := s.udpHandlers[d.DstPort]; ok {
		h(pkt.Src, d.SrcPort, d.Payload)
	}
}
