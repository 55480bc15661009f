// Package udp implements the UDP datagram format. ST-TCP exchanges its
// primary heartbeat over a UDP channel on the IP link (paper §3); the
// inter-server control channel (connection announcements, missed-byte
// recovery) also rides on UDP.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ip"
)

// HeaderLen is the length of a UDP header.
const HeaderLen = 8

// Decoding errors.
var (
	ErrTooShort    = errors.New("udp: datagram too short")
	ErrBadLength   = errors.New("udp: length field mismatch")
	ErrBadChecksum = errors.New("udp: bad checksum")
)

// Datagram is a decoded UDP datagram.
type Datagram struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// AppendEncode serialises the datagram onto dstBuf, reusing its capacity
// when possible, and returns the extended slice; the checksum covers the
// IPv4 pseudo-header for src and dst. It is AppendUnsealed and then the
// checksum (ip.SealTransport).
func (d *Datagram) AppendEncode(dstBuf []byte, src, dst ip.Addr) []byte {
	base := len(dstBuf)
	dstBuf = d.AppendUnsealed(dstBuf)
	ip.SealTransport(src, dst, ip.ProtoUDP, dstBuf[base:])
	return dstBuf
}

// AppendUnsealed is AppendEncode with the checksum field zero: the one
// writer of the datagram. A stack passes an outbound frame here, so the
// datagram is written in place; a NIC writes the checksum (ip.Seal) only
// where something can read it (see netem.Link).
func (d *Datagram) AppendUnsealed(dstBuf []byte) []byte {
	total := HeaderLen + len(d.Payload)
	dstBuf = append(dstBuf, make([]byte, total)...) // zeroed: the checksum field too
	buf := dstBuf[len(dstBuf)-total:]
	binary.BigEndian.PutUint16(buf[0:], d.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], d.DstPort)
	binary.BigEndian.PutUint16(buf[4:], uint16(total))
	copy(buf[HeaderLen:], d.Payload)
	return dstBuf
}

// Decode parses and validates buf against the pseudo-header for src and
// dst: Parse, and then the checksum if the sender wrote one
// (ip.VerifyTransport). The payload aliases buf.
func Decode(src, dst ip.Addr, buf []byte) (Datagram, error) {
	d, err := Parse(buf)
	if err != nil {
		return Datagram{}, err
	}
	if ip.VerifyTransport(src, dst, ip.ProtoUDP, buf) != nil {
		return Datagram{}, ErrBadChecksum
	}
	return d, nil
}

// Parse is Decode without the checksum, which a receiving NIC has checked
// where the bytes can have changed (see netem.NIC). It checks the length.
// The payload aliases buf.
func Parse(buf []byte) (Datagram, error) {
	if len(buf) < HeaderLen {
		return Datagram{}, fmt.Errorf("%w: %d bytes", ErrTooShort, len(buf))
	}
	total := int(binary.BigEndian.Uint16(buf[4:]))
	if total < HeaderLen || total > len(buf) {
		return Datagram{}, fmt.Errorf("%w: length %d, have %d", ErrBadLength, total, len(buf))
	}
	return Datagram{
		SrcPort: binary.BigEndian.Uint16(buf[0:]),
		DstPort: binary.BigEndian.Uint16(buf[2:]),
		Payload: buf[HeaderLen:total],
	}, nil
}
