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

	ErrTransportTooShort    = errors.New("ip: transport header out of range")
	ErrBadTransportChecksum = errors.New("ip: bad transport checksum")
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
// already in its frame, with PutUnsealedHeader.
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

// PutHeader writes the header, with its checksum, into pkt[:HeaderLen], for
// a packet of len(pkt) bytes whose payload already follows it; p.Payload is
// not read. It is PutUnsealedHeader and then the header's checksum.
func (p *Packet) PutHeader(pkt []byte) {
	p.PutUnsealedHeader(pkt)
	sealHeader(pkt)
}

// PutUnsealedHeader is PutHeader with the checksum field zero: the one
// writer of the header. A stack sends what it writes and a NIC seals it
// (Seal) only where something can read the sum (see netem.Link).
func (p *Packet) PutUnsealedHeader(pkt []byte) {
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
}

// Seal writes the checksums of pkt, an IPv4 packet: its header's and, for
// TCP and UDP, the transport checksum over the pseudo-header
// (SealTransport). ICMP writes its own checksum; any other protocol is left
// alone, and so are bytes Parse refuses. Sealing a packet whose sum fields
// a stack left zero gives the bytes the full encoders (PutHeader and the
// transports' AppendEncode) write.
func Seal(pkt []byte) {
	p, err := Parse(pkt)
	if err != nil {
		return
	}
	sealHeader(pkt)
	SealTransport(p.Src, p.Dst, p.Proto, p.Payload)
}

// sealHeader writes the header checksum of pkt over its first HeaderLen
// bytes.
func sealHeader(pkt []byte) {
	pkt[10], pkt[11] = 0, 0
	binary.BigEndian.PutUint16(pkt[10:], Checksum(pkt[:HeaderLen]))
}

// The transport headers SealTransport and VerifyTransport read: each one's
// least length and where its checksum sits.
const (
	tcpSumAt     = 16
	tcpHeaderLen = 20
	udpSumAt     = 6
	udpHeaderLen = 8
)

// transportSum locates the checksum of seg, a TCP segment or a UDP
// datagram: it returns the bytes the sum covers (a datagram up to its
// length field) and where in them the sum sits. ok is false for any other
// protocol, a segment shorter than its header (a data offset out of range
// included) and a datagram whose length field is out of range: the bytes
// the transports' Parse refuses.
func transportSum(proto Protocol, seg []byte) (covered []byte, at int, ok bool) {
	switch {
	case proto == ProtoTCP && len(seg) >= tcpHeaderLen:
		off := int(seg[12]>>4) * 4
		return seg, tcpSumAt, off >= tcpHeaderLen && off <= len(seg)
	case proto == ProtoUDP && len(seg) >= udpHeaderLen:
		n := int(binary.BigEndian.Uint16(seg[4:]))
		if n >= udpHeaderLen && n <= len(seg) {
			return seg[:n], udpSumAt, true
		}
	}
	return nil, 0, false
}

// SealTransport writes the checksum of seg, a TCP segment or a UDP datagram
// sent from src to dst, over the IPv4 pseudo-header and seg, the datagram
// up to its length field. It is the one writer of either checksum: a UDP
// sum that computes to zero is written as all ones (RFC 768). Bytes the
// transports' Parse refuses, and any other protocol, are left alone.
func SealTransport(src, dst Addr, proto Protocol, seg []byte) {
	seg, at, ok := transportSum(proto, seg)
	if !ok {
		return
	}
	seg[at], seg[at+1] = 0, 0
	sum := FinishChecksum(SumWords(PseudoHeaderSum(src, dst, proto, len(seg)), seg))
	if sum == 0 && proto == ProtoUDP {
		sum = 0xffff
	}
	binary.BigEndian.PutUint16(seg[at:], sum)
}

// Verify checks the sums Seal writes into pkt, an IPv4 packet: its header
// checksum and, for TCP and UDP, the transport checksum (VerifyTransport).
// It is Seal's counterpart and leaves to the stack what Seal leaves alone:
// bytes Parse refuses, and ICMP and any other protocol past the header.
func Verify(pkt []byte) error {
	p, err := Parse(pkt)
	switch {
	case err != nil:
		return nil
	case Checksum(pkt[:HeaderLen]) != 0:
		return ErrBadChecksum
	case p.Proto == ProtoTCP || p.Proto == ProtoUDP:
		return VerifyTransport(p.Src, p.Dst, p.Proto, p.Payload)
	}
	return nil
}

// VerifyTransport checks the checksum of seg, a TCP segment or a UDP
// datagram sent from src to dst, as SealTransport writes it: the one
// checker of either sum. A datagram whose sum is zero carries none and
// passes (RFC 768). Bytes the transports' Parse refuses fail, and so does
// any other protocol.
func VerifyTransport(src, dst Addr, proto Protocol, seg []byte) error {
	seg, at, ok := transportSum(proto, seg)
	if !ok {
		return fmt.Errorf("%w: %v", ErrTransportTooShort, proto)
	}
	if proto == ProtoUDP && seg[at]|seg[at+1] == 0 {
		return nil
	}
	if FinishChecksum(SumWords(PseudoHeaderSum(src, dst, proto, len(seg)), seg)) != 0 {
		return fmt.Errorf("%w: %v", ErrBadTransportChecksum, proto)
	}
	return nil
}

// Decode parses and validates buf: Parse, and then the header checksum.
// The returned packet's payload aliases buf.
func Decode(buf []byte) (Packet, error) {
	p, err := Parse(buf)
	if err != nil {
		return Packet{}, err
	}
	if Checksum(buf[:HeaderLen]) != 0 {
		return Packet{}, ErrBadChecksum
	}
	return p, nil
}

// Parse is Decode without the header checksum, which a receiving NIC has
// checked where the bytes can have changed (Verify; see netem.NIC). It
// checks everything else: the version, that there are no
// options, the total length, and the TTL — a TTL of 0, which no router
// forwards and which PutUnsealedHeader writes as DefaultTTL, is refused.
// The returned packet's payload aliases buf.
func Parse(buf []byte) (Packet, error) {
	if len(buf) < HeaderLen {
		return Packet{}, fmt.Errorf("%w: %d bytes", ErrPacketTooShort, len(buf))
	}
	if buf[0]>>4 != 4 {
		return Packet{}, ErrBadVersion
	}
	if ihl := int(buf[0]&0x0f) * 4; ihl != HeaderLen {
		return Packet{}, fmt.Errorf("%w: IHL %d", ErrHasOptions, ihl)
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
