// Package icmp implements the ICMP echo (ping) messages used by ST-TCP's
// gateway-ping arbitration (paper §4.3): when the heartbeat fails on the IP
// link but survives on the serial link, both servers ping the gateway and
// exchange the results over the serial heartbeat to decide whose NIC died.
package icmp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ip"
)

// Type is the ICMP message type.
type Type uint8

// Message types used here.
const (
	TypeEchoReply   Type = 0
	TypeEchoRequest Type = 8
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeEchoReply:
		return "echo-reply"
	case TypeEchoRequest:
		return "echo-request"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// HeaderLen is the length of an ICMP echo header.
const HeaderLen = 8

// Decoding errors.
var (
	ErrTooShort    = errors.New("icmp: message too short")
	ErrBadChecksum = errors.New("icmp: bad checksum")
)

// Echo is an ICMP echo request or reply.
type Echo struct {
	Type    Type
	ID      uint16
	Seq     uint16
	Payload []byte
}

// AppendEncode serialises the message with its checksum onto dst, reusing
// its capacity when possible, and returns the extended slice. A stack
// passes an outbound frame here, so the message is written in place.
func (e *Echo) AppendEncode(dst []byte) []byte {
	n := HeaderLen + len(e.Payload)
	dst = append(dst, make([]byte, n)...)
	buf := dst[len(dst)-n:]
	buf[0] = uint8(e.Type)
	binary.BigEndian.PutUint16(buf[4:], e.ID)
	binary.BigEndian.PutUint16(buf[6:], e.Seq)
	copy(buf[HeaderLen:], e.Payload)
	binary.BigEndian.PutUint16(buf[2:], ip.Checksum(buf))
	return dst
}

// Decode parses and validates buf. The payload aliases buf.
func Decode(buf []byte) (Echo, error) {
	if len(buf) < HeaderLen {
		return Echo{}, fmt.Errorf("%w: %d bytes", ErrTooShort, len(buf))
	}
	if ip.Checksum(buf) != 0 {
		return Echo{}, ErrBadChecksum
	}
	return Echo{
		Type:    Type(buf[0]),
		ID:      binary.BigEndian.Uint16(buf[4:]),
		Seq:     binary.BigEndian.Uint16(buf[6:]),
		Payload: buf[HeaderLen:],
	}, nil
}
