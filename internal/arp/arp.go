// Package arp implements the Address Resolution Protocol for the simulated
// stack: the wire format, a resolution table with static entries, and
// request/reply handling.
//
// The ST-TCP testbed (paper Figure 2) relies on a *static* ARP entry on the
// gateway/client mapping the service IP to a multicast Ethernet address so
// that frames for the service reach both the primary and the backup; the
// Table type supports exactly such pinned entries alongside dynamically
// learned ones.
package arp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/eth"
	"repro/internal/ip"
)

// Op is the ARP operation code.
type Op uint16

// ARP operations.
const (
	OpRequest Op = 1
	OpReply   Op = 2
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpRequest:
		return "request"
	case OpReply:
		return "reply"
	default:
		return fmt.Sprintf("Op(%d)", uint16(o))
	}
}

// PacketLen is the length of an Ethernet/IPv4 ARP packet.
const PacketLen = 28

// Decoding errors.
var (
	ErrPacketTooShort = errors.New("arp: packet too short")
	ErrNotEthIPv4     = errors.New("arp: not an Ethernet/IPv4 ARP packet")
)

// Packet is an ARP request or reply for Ethernet/IPv4.
type Packet struct {
	Op       Op
	SenderHW eth.Addr
	SenderIP ip.Addr
	TargetHW eth.Addr
	TargetIP ip.Addr
}

// AppendEncode serialises the packet onto dst, reusing its capacity when
// possible, and returns the extended slice. A stack passes an outbound
// frame here, so the packet is written in place.
func (p *Packet) AppendEncode(dst []byte) []byte {
	dst = append(dst, make([]byte, PacketLen)...)
	buf := dst[len(dst)-PacketLen:]
	binary.BigEndian.PutUint16(buf[0:], 1) // hardware type: Ethernet
	binary.BigEndian.PutUint16(buf[2:], uint16(eth.TypeIPv4))
	buf[4] = eth.AddrLen
	buf[5] = ip.AddrLen
	binary.BigEndian.PutUint16(buf[6:], uint16(p.Op))
	copy(buf[8:], p.SenderHW[:])
	copy(buf[14:], p.SenderIP[:])
	copy(buf[18:], p.TargetHW[:])
	copy(buf[24:], p.TargetIP[:])
	return dst
}

// Decode parses buf into a packet.
func Decode(buf []byte) (Packet, error) {
	if len(buf) < PacketLen {
		return Packet{}, fmt.Errorf("%w: %d bytes", ErrPacketTooShort, len(buf))
	}
	if binary.BigEndian.Uint16(buf[0:]) != 1 ||
		binary.BigEndian.Uint16(buf[2:]) != uint16(eth.TypeIPv4) ||
		buf[4] != eth.AddrLen || buf[5] != ip.AddrLen {
		return Packet{}, ErrNotEthIPv4
	}
	var p Packet
	p.Op = Op(binary.BigEndian.Uint16(buf[6:]))
	copy(p.SenderHW[:], buf[8:])
	copy(p.SenderIP[:], buf[14:])
	copy(p.TargetHW[:], buf[18:])
	copy(p.TargetIP[:], buf[24:])
	return p, nil
}

// Table maps IPv4 addresses to Ethernet addresses. Static entries are never
// overwritten by learned ones — the testbed's serviceIP→multiEA mapping must
// survive ARP traffic from the servers themselves.
type Table struct {
	entries map[ip.Addr]entry
}

type entry struct {
	hw     eth.Addr
	static bool
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{entries: make(map[ip.Addr]entry)}
}

// AddStatic pins addr to hw; the entry cannot be displaced by Learn.
func (t *Table) AddStatic(addr ip.Addr, hw eth.Addr) {
	t.entries[addr] = entry{hw: hw, static: true}
}

// Learn records a dynamic mapping unless a static entry already exists.
func (t *Table) Learn(addr ip.Addr, hw eth.Addr) {
	if e, ok := t.entries[addr]; ok && e.static {
		return
	}
	t.entries[addr] = entry{hw: hw}
}

// Lookup resolves addr, reporting whether a mapping exists.
func (t *Table) Lookup(addr ip.Addr) (eth.Addr, bool) {
	e, ok := t.entries[addr]
	return e.hw, ok
}
