// Package eth implements Ethernet II framing for the simulated network.
//
// Frames carry a 14-byte header (destination, source, EtherType) and a
// trailing CRC-32 frame check sequence, mirroring the wire format closely
// enough that encode/decode bugs surface as checksum failures, exactly as
// they would on real hardware.
package eth

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// AddrLen is the length of an Ethernet address in bytes.
const AddrLen = 6

// Addr is a 48-bit Ethernet (MAC) address.
type Addr [AddrLen]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// MakeAddr builds a locally-administered unicast address from a small
// integer, convenient for assigning stable NIC addresses in topologies.
func MakeAddr(n uint32) Addr {
	var a Addr
	a[0] = 0x02 // locally administered, unicast
	a[1] = 0x00
	binary.BigEndian.PutUint32(a[2:], n)
	return a
}

// MakeMulticastAddr builds a locally-administered multicast group address
// from a small integer. The paper's testbed maps the service IP to such a
// multicast Ethernet address ("multiEA") so that both the primary and the
// backup receive every client frame.
func MakeMulticastAddr(n uint32) Addr {
	a := MakeAddr(n)
	a[0] |= 0x01 // multicast bit
	return a
}

// IsMulticast reports whether the address has the group bit set. Broadcast
// counts as multicast.
func (a Addr) IsMulticast() bool { return a[0]&0x01 != 0 }

// IsBroadcast reports whether the address is the broadcast address.
func (a Addr) IsBroadcast() bool { return a == Broadcast }

// String renders the address in the conventional colon-separated form.
func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// EtherType identifies the payload protocol of a frame.
type EtherType uint16

// EtherType values used in this repository.
const (
	TypeIPv4 EtherType = 0x0800
	TypeARP  EtherType = 0x0806
)

// String names the EtherType.
func (t EtherType) String() string {
	switch t {
	case TypeIPv4:
		return "IPv4"
	case TypeARP:
		return "ARP"
	default:
		return fmt.Sprintf("EtherType(%#04x)", uint16(t))
	}
}

// Frame sizes.
const (
	HeaderLen = 2*AddrLen + 2 // dst + src + ethertype
	FCSLen    = 4             // CRC-32 frame check sequence
	// MaxPayload is the classic Ethernet MTU.
	MaxPayload = 1500
	// MaxFrameLen bounds an encoded frame.
	MaxFrameLen = HeaderLen + MaxPayload + FCSLen
)

// Framing errors.
var (
	ErrFrameTooShort = errors.New("eth: frame too short")
	ErrFrameTooLong  = errors.New("eth: payload exceeds MTU")
	ErrBadFCS        = errors.New("eth: bad frame check sequence")
)

// Frame is a decoded Ethernet II frame.
type Frame struct {
	Dst     Addr
	Src     Addr
	Type    EtherType
	Payload []byte
}

// AppendEncode serialises the frame onto dst, reusing its capacity when
// possible, and returns the extended slice. The segment path does not come
// here: a NIC seals a frame whose payload its stack wrote in place.
func (f *Frame) AppendEncode(dst []byte) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLong, len(f.Payload))
	}
	total := HeaderLen + len(f.Payload) + FCSLen
	base := len(dst)
	if cap(dst)-base < total {
		grown := make([]byte, base+total)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:base+total]
	}
	copy(dst[base+HeaderLen:], f.Payload)
	Seal(dst[base:], f.Dst, f.Src, f.Type)
	return dst, nil
}

// Seal writes the header of frame, whose payload already sits at
// frame[HeaderLen:len(frame)-FCSLen], and then its FCS into the last
// FCSLen bytes, over everything before them. It is the one encoder of the
// package: AppendEncode and a NIC's transmit both end here.
func Seal(frame []byte, dst, src Addr, t EtherType) {
	*(*Addr)(frame[0:]) = dst // array stores, not memmove calls
	*(*Addr)(frame[AddrLen:]) = src
	binary.BigEndian.PutUint16(frame[2*AddrLen:], uint16(t))
	body := len(frame) - FCSLen
	binary.BigEndian.PutUint32(frame[body:], crc32.ChecksumIEEE(frame[:body]))
}

// Decode parses buf into a frame, verifying the FCS and, as AppendEncode
// does, the MTU. The returned frame's payload aliases buf.
func Decode(buf []byte) (Frame, error) {
	f, err := Parse(buf)
	if err != nil {
		return Frame{}, err
	}
	body := buf[:len(buf)-FCSLen]
	want := binary.BigEndian.Uint32(buf[len(buf)-FCSLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return Frame{}, fmt.Errorf("%w: got %#08x want %#08x", ErrBadFCS, got, want)
	}
	return f, nil
}

// Parse is Decode without the FCS check, for bytes whose FCS someone has
// already verified: a NIC handed the switch's verdict on the very buffer
// it receives. It still checks the length.
func Parse(buf []byte) (Frame, error) {
	if len(buf) < HeaderLen+FCSLen {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooShort, len(buf))
	}
	if len(buf) > MaxFrameLen {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLong, len(buf)-HeaderLen-FCSLen)
	}
	return Frame{
		Dst:     Addr(buf[0:]),
		Src:     Addr(buf[AddrLen:]),
		Type:    EtherType(binary.BigEndian.Uint16(buf[2*AddrLen:])),
		Payload: buf[HeaderLen : len(buf)-FCSLen],
	}, nil
}
