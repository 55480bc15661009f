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
// IPv4 pseudo-header for src and dst. A stack passes an outbound frame
// here, so the datagram is written in place.
func (d *Datagram) AppendEncode(dstBuf []byte, src, dst ip.Addr) []byte {
	total := HeaderLen + len(d.Payload)
	dstBuf = append(dstBuf, make([]byte, total)...)
	buf := dstBuf[len(dstBuf)-total:]
	binary.BigEndian.PutUint16(buf[0:], d.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], d.DstPort)
	binary.BigEndian.PutUint16(buf[4:], uint16(total))
	copy(buf[HeaderLen:], d.Payload)
	sum := ip.PseudoHeaderSum(src, dst, ip.ProtoUDP, total)
	ck := ip.FinishChecksum(ip.SumWords(sum, buf))
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted all-ones when computed zero
	}
	binary.BigEndian.PutUint16(buf[6:], ck)
	return dstBuf
}

// Decode parses and validates buf against the pseudo-header for src and
// dst. The payload aliases buf.
func Decode(src, dst ip.Addr, buf []byte) (Datagram, error) {
	if len(buf) < HeaderLen {
		return Datagram{}, fmt.Errorf("%w: %d bytes", ErrTooShort, len(buf))
	}
	total := int(binary.BigEndian.Uint16(buf[4:]))
	if total < HeaderLen || total > len(buf) {
		return Datagram{}, fmt.Errorf("%w: length %d, have %d", ErrBadLength, total, len(buf))
	}
	buf = buf[:total]
	if binary.BigEndian.Uint16(buf[6:]) != 0 { // checksum present
		sum := ip.PseudoHeaderSum(src, dst, ip.ProtoUDP, total)
		if ip.FinishChecksum(ip.SumWords(sum, buf)) != 0 {
			return Datagram{}, ErrBadChecksum
		}
	}
	return Datagram{
		SrcPort: binary.BigEndian.Uint16(buf[0:]),
		DstPort: binary.BigEndian.Uint16(buf[2:]),
		Payload: buf[HeaderLen:],
	}, nil
}
