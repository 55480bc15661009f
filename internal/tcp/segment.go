// Package tcp implements a user-space TCP over the simulated network stack:
// the 3-way handshake, sliding-window data transfer with flow control,
// RFC 6298-style RTO estimation with exponential backoff, fast retransmit,
// Reno-style congestion control, persist-timer window probing, and orderly
// FIN/RST teardown.
//
// Beyond standard TCP, the package exposes the hooks ST-TCP needs (paper §2
// and §3): per-connection output suppression (the backup generates but does
// not emit segments), initial-sequence-number override (the backup matches
// the primary's ISN so it can take over the connection), replication taps on
// the receive path (the primary holds client bytes until the backup confirms
// them), FIN gating (MaxDelayFIN), and full state introspection
// (LastByteReceived, LastAckReceived, LastAppByteWritten, LastAppByteRead).
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/ip"
)

// Flags is the TCP flags field.
type Flags uint8

// TCP control flags.
const (
	FlagFIN Flags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// Has reports whether all flags in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// String renders the flags compactly, e.g. "SYN|ACK".
func (f Flags) String() string {
	var parts []string
	for _, fl := range []struct {
		bit  Flags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"},
		{FlagRST, "RST"}, {FlagPSH, "PSH"},
	} {
		if f.Has(fl.bit) {
			parts = append(parts, fl.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// HeaderLen is the TCP header length without options.
const HeaderLen = 20

// optMSSLen is the encoded length of the MSS option.
const optMSSLen = 4

// DefaultMSS is the maximum segment size implied by the Ethernet MTU.
const DefaultMSS = 1460

// Segment decoding errors.
var (
	ErrSegmentTooShort = errors.New("tcp: segment too short")
	ErrBadChecksum     = errors.New("tcp: bad checksum")
	ErrBadDataOffset   = errors.New("tcp: bad data offset")
)

// Segment is a decoded TCP segment.
type Segment struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   Flags
	Window  uint16
	MSS     uint16 // from the MSS option; 0 if absent
	Payload []byte
}

// SegLen returns the sequence space the segment occupies: payload bytes
// plus one for SYN and one for FIN.
func (s *Segment) SegLen() int {
	n := len(s.Payload)
	if s.Flags.Has(FlagSYN) {
		n++
	}
	if s.Flags.Has(FlagFIN) {
		n++
	}
	return n
}

// AppendEncode serialises the segment onto dstBuf, reusing its capacity
// when possible, and returns the extended slice; the checksum covers the
// IPv4 pseudo-header for src and dst. The MSS option is emitted only on SYN
// segments that carry a non-zero MSS. The stack passes an outbound frame
// from its netstack here, so header, payload and checksum are written once,
// in place, and no layer below copies them.
func (s *Segment) AppendEncode(dstBuf []byte, src, dst ip.Addr) []byte {
	optLen := 0
	if s.Flags.Has(FlagSYN) && s.MSS != 0 {
		optLen = optMSSLen
	}
	total := HeaderLen + optLen + len(s.Payload)
	base := len(dstBuf)
	if cap(dstBuf)-base < total {
		grown := make([]byte, base+total)
		copy(grown, dstBuf)
		dstBuf = grown
	} else {
		dstBuf = dstBuf[:base+total]
	}
	buf := dstBuf[base:]
	binary.BigEndian.PutUint16(buf[0:], s.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], s.DstPort)
	binary.BigEndian.PutUint32(buf[4:], s.Seq)
	binary.BigEndian.PutUint32(buf[8:], s.Ack)
	buf[12] = uint8((HeaderLen+optLen)/4) << 4
	buf[13] = uint8(s.Flags)
	binary.BigEndian.PutUint16(buf[14:], s.Window)
	// Zero the checksum and urgent-pointer fields: the buffer may be a
	// reused frame carrying a previous segment's bytes.
	buf[16], buf[17], buf[18], buf[19] = 0, 0, 0, 0
	if optLen > 0 {
		buf[HeaderLen] = 2 // kind: MSS
		buf[HeaderLen+1] = optMSSLen
		binary.BigEndian.PutUint16(buf[HeaderLen+2:], s.MSS)
	}
	copy(buf[HeaderLen+optLen:], s.Payload)
	sum := ip.PseudoHeaderSum(src, dst, ip.ProtoTCP, total)
	binary.BigEndian.PutUint16(buf[16:], ip.FinishChecksum(ip.SumWords(sum, buf)))
	return dstBuf
}

// Decode parses and validates buf against the pseudo-header for src and
// dst. The payload aliases buf.
func Decode(src, dst ip.Addr, buf []byte) (Segment, error) {
	if len(buf) < HeaderLen {
		return Segment{}, fmt.Errorf("%w: %d bytes", ErrSegmentTooShort, len(buf))
	}
	sum := ip.PseudoHeaderSum(src, dst, ip.ProtoTCP, len(buf))
	if ip.FinishChecksum(ip.SumWords(sum, buf)) != 0 {
		return Segment{}, ErrBadChecksum
	}
	dataOff := int(buf[12]>>4) * 4
	if dataOff < HeaderLen || dataOff > len(buf) {
		return Segment{}, fmt.Errorf("%w: %d", ErrBadDataOffset, dataOff)
	}
	var s Segment
	s.SrcPort = binary.BigEndian.Uint16(buf[0:])
	s.DstPort = binary.BigEndian.Uint16(buf[2:])
	s.Seq = binary.BigEndian.Uint32(buf[4:])
	s.Ack = binary.BigEndian.Uint32(buf[8:])
	s.Flags = Flags(buf[13])
	s.Window = binary.BigEndian.Uint16(buf[14:])
	s.Payload = buf[dataOff:]
	// Parse options (only MSS is understood; others are skipped).
	opts := buf[HeaderLen:dataOff]
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case 0: // end of options
			opts = nil
		case 1: // no-op
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				opts = nil
				break
			}
			if kind == 2 && opts[1] == optMSSLen {
				s.MSS = binary.BigEndian.Uint16(opts[2:])
			}
			opts = opts[opts[1]:]
		}
	}
	return s, nil
}

// String renders the segment for traces.
func (s *Segment) String() string {
	return fmt.Sprintf("%d>%d %s seq=%d ack=%d win=%d len=%d",
		s.SrcPort, s.DstPort, s.Flags, s.Seq, s.Ack, s.Window, len(s.Payload))
}

// seqDelta returns the signed distance from b to a in 32-bit sequence
// space; it is correct as long as the true distance is within ±2^31.
func seqDelta(a, b uint32) int32 { return int32(a - b) }
