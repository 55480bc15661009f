// Package ip implements the IPv4 packet format used by the simulated stack:
// a 20-byte header with the Internet checksum, protocol demultiplexing, and
// the ones-complement checksum routine shared by ICMP, UDP and TCP.
//
// Fragmentation is not implemented; the simulated links all carry the full
// Ethernet MTU, as the paper's single-switch LAN testbed does.
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
)

// AddrLen is the length of an IPv4 address in bytes.
const AddrLen = 4

// Addr is an IPv4 address.
type Addr [AddrLen]byte

// MakeAddr assembles an address from its four octets.
func MakeAddr(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	var buf [len("255.255.255.255")]byte
	b := buf[:0]
	for i, octet := range a {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	return string(b)
}

// IsZero reports whether the address is the unspecified address 0.0.0.0.
func (a Addr) IsZero() bool { return a == Addr{} }

// Protocol identifies the transport protocol carried in a packet.
type Protocol uint8

// Protocol numbers (IANA).
const (
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// HeaderLen is the length of an IPv4 header without options; the simulated
// stack never emits options.
const HeaderLen = 20

// MaxPayload is the largest transport payload that fits in an Ethernet
// frame.
const MaxPayload = 1500 - HeaderLen

// DefaultTTL is the initial time-to-live of emitted packets.
const DefaultTTL = 64

// Packet decoding errors.
var (
	ErrPacketTooShort = errors.New("ip: packet too short")
	ErrBadVersion     = errors.New("ip: not IPv4")
	ErrBadChecksum    = errors.New("ip: bad header checksum")
	ErrBadLength      = errors.New("ip: total length mismatch")
	ErrHasOptions     = errors.New("ip: options not supported")
	ErrZeroTTL        = errors.New("ip: TTL 0")
)

// Packet is a decoded IPv4 packet.
type Packet struct {
	TOS      uint8
	ID       uint16
	DontFrag bool
	TTL      uint8
	Proto    Protocol
	Src      Addr
	Dst      Addr
	Payload  []byte
}

// AppendEncode serialises the packet onto dst, reusing its capacity when
// possible, and returns the extended slice. The segment path does not come
// here: the stack writes the header in front of a transport payload
// already in its frame, with PutHeader.
func (p *Packet) AppendEncode(dst []byte) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		return nil, fmt.Errorf("ip: payload %d exceeds max %d", len(p.Payload), MaxPayload)
	}
	total := HeaderLen + len(p.Payload)
	base := len(dst)
	if cap(dst)-base < total {
		grown := make([]byte, base+total)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:base+total]
	}
	copy(dst[base+HeaderLen:], p.Payload)
	p.PutHeader(dst[base:])
	return dst, nil
}

// PutHeader writes the header, with a freshly computed checksum, into
// pkt[:HeaderLen], for a packet of len(pkt) bytes whose payload already
// follows it; p.Payload is not read. It is the one encoder of the package.
func (p *Packet) PutHeader(pkt []byte) {
	buf := pkt[:HeaderLen]
	buf[0] = 0x45 // version 4, IHL 5
	buf[1] = p.TOS
	binary.BigEndian.PutUint16(buf[2:], uint16(len(pkt)))
	binary.BigEndian.PutUint16(buf[4:], p.ID)
	// Write the flags/fragment and checksum fields unconditionally: the
	// buffer may be a reused frame carrying a previous packet's bytes.
	buf[6], buf[7] = 0, 0
	if p.DontFrag {
		buf[6] = 0x40
	}
	ttl := p.TTL
	if ttl == 0 {
		ttl = DefaultTTL
	}
	buf[8] = ttl
	buf[9] = uint8(p.Proto)
	buf[10], buf[11] = 0, 0
	copy(buf[12:], p.Src[:])
	copy(buf[16:], p.Dst[:])
	binary.BigEndian.PutUint16(buf[10:], Checksum(buf))
}

// Decode parses and validates buf. A TTL of 0, which no router forwards and
// which PutHeader writes as DefaultTTL, is refused. The returned packet's
// payload aliases buf.
func Decode(buf []byte) (Packet, error) {
	if len(buf) < HeaderLen {
		return Packet{}, fmt.Errorf("%w: %d bytes", ErrPacketTooShort, len(buf))
	}
	if buf[0]>>4 != 4 {
		return Packet{}, ErrBadVersion
	}
	if ihl := int(buf[0]&0x0f) * 4; ihl != HeaderLen {
		return Packet{}, fmt.Errorf("%w: IHL %d", ErrHasOptions, ihl)
	}
	if Checksum(buf[:HeaderLen]) != 0 {
		return Packet{}, ErrBadChecksum
	}
	total := int(binary.BigEndian.Uint16(buf[2:]))
	if total < HeaderLen || total > len(buf) {
		return Packet{}, fmt.Errorf("%w: total %d, have %d", ErrBadLength, total, len(buf))
	}
	if buf[8] == 0 {
		return Packet{}, ErrZeroTTL
	}
	var p Packet
	p.TOS = buf[1]
	p.ID = binary.BigEndian.Uint16(buf[4:])
	p.DontFrag = buf[6]&0x40 != 0
	p.TTL = buf[8]
	p.Proto = Protocol(buf[9])
	copy(p.Src[:], buf[12:])
	copy(p.Dst[:], buf[16:])
	p.Payload = buf[HeaderLen:total]
	return p, nil
}

// Checksum computes the RFC 1071 Internet checksum over data. Computing it
// over a buffer that embeds a correct checksum yields zero.
func Checksum(data []byte) uint16 {
	return FinishChecksum(SumWords(0, data))
}

// SumWords folds data, zero-padded to an even length, into a running
// ones-complement sum, eight bytes a step: a big-endian 64-bit load is four
// 16-bit words at weights all congruent to 1 modulo 0xffff, as is the carry
// out of bit 63, fed back in. The result is 16 bits, zero only if all input is.
func SumWords(sum uint32, data []byte) uint32 {
	acc, carry := uint64(sum), uint64(0)
	for len(data) >= 32 { // a straight run of four keeps the carry in the flag
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[8:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[16:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[24:]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	// The last 0-7 bytes, left-aligned as a load has them: at most one
	// 4-byte, one 2-byte and one 1-byte load.
	var tail uint64
	shift := uint(64)
	if len(data) >= 4 {
		shift -= 32
		tail = uint64(binary.BigEndian.Uint32(data)) << shift
		data = data[4:]
	}
	if len(data) >= 2 {
		shift -= 16
		tail |= uint64(binary.BigEndian.Uint16(data)) << shift
		data = data[2:]
	}
	if len(data) == 1 {
		tail |= uint64(data[0]) << (shift - 8)
	}
	acc, carry = bits.Add64(acc, tail, carry)
	acc = acc>>32 + acc&0xffffffff + carry
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return uint32(acc)
}

// FinishChecksum folds the accumulator and returns the complemented
// checksum.
func FinishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// PseudoHeaderSum starts a transport checksum with the IPv4 pseudo-header
// for the given addresses, protocol, and transport length.
func PseudoHeaderSum(src, dst Addr, proto Protocol, length int) uint32 {
	be := binary.BigEndian
	return uint32(be.Uint16(src[:])) + uint32(be.Uint16(src[2:])) + uint32(be.Uint16(dst[:])) +
		uint32(be.Uint16(dst[2:])) + uint32(proto) + uint32(length)
}
