// Package hb implements ST-TCP's heartbeat protocol (paper §3): a compact
// periodic message carrying, per TCP connection, the last byte received
// from the client, the last ack received from the client, the last byte the
// application wrote to the TCP send buffer, and the last byte the
// application read from the receive buffer, plus FIN/RST generation flags
// and gateway-ping results. The message is exchanged redundantly over two
// diverse links — UDP on the IP link and the serial null-modem line — and
// per-link liveness is tracked so a single link failure is distinguishable
// from a peer crash.
package hb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ip"
	"repro/internal/tcp"
)

// Role identifies the sender of a heartbeat.
type Role uint8

// Roles.
const (
	RolePrimary Role = 1
	RoleBackup  Role = 2
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleBackup:
		return "backup"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Per-connection flag bits.
const (
	connFlagFIN       = 1 << 0 // local application generated a FIN
	connFlagRST       = 1 << 1 // local application generated a RST
	connFlagPeerFIN   = 1 << 2 // client's FIN seen
	connFlagEstab     = 1 << 3 // connection fully established
	connFlagFINTapped = 1 << 4 // FIN currently gated (informational)
)

// Message header flag bits.
const (
	msgFlagPingValid = 1 << 0
	msgFlagPingOK    = 1 << 1
	msgFlagAppFailed = 1 << 2
)

const (
	magic     = 0x5754 // "ST"
	version   = 2
	headerLen = 2 + 1 + 1 + 8 + 1 + 2
	connLen   = 4 + 2 + 2 + 4 + 4 + 4 + 4 + 4 + 4 + 1
	maxConns  = 4000
)

// Decoding errors.
var (
	ErrTooShort   = errors.New("hb: message too short")
	ErrBadMagic   = errors.New("hb: bad magic")
	ErrBadVersion = errors.New("hb: unsupported version")
	ErrTruncated  = errors.New("hb: truncated connection list")
	ErrTooMany    = errors.New("hb: too many connections")
)

// ConnState is the replicated per-connection view carried in a heartbeat.
// Stream positions are transmitted as 32-bit wire-width values, like TCP
// sequence numbers (keeping the per-connection footprint near the paper's
// ~20-byte budget); receivers unwrap them against their own 64-bit local
// state with Unwrap32.
type ConnState struct {
	RemoteAddr ip.Addr
	RemotePort uint16
	LocalPort  uint16
	ISS        uint32 // primary's initial send sequence number
	IRS        uint32 // client's initial sequence number

	LastByteReceived   uint32
	LastAckReceived    uint32
	LastAppByteWritten uint32
	LastAppByteRead    uint32

	FINGenerated bool
	RSTGenerated bool
	PeerFINSeen  bool
	Established  bool
	FINGated     bool
}

// Key returns the connection identity from the *receiver's* point of view
// given the shared service address (both servers use the same local
// address and port for the replicated connection).
func (c *ConnState) Key(serviceAddr ip.Addr) tcp.ConnID {
	return tcp.ConnID{
		LocalAddr:  serviceAddr,
		LocalPort:  c.LocalPort,
		RemoteAddr: c.RemoteAddr,
		RemotePort: c.RemotePort,
	}
}

// Message is one heartbeat.
type Message struct {
	Role Role
	Seq  uint64

	// PingValid reports whether PingOK carries a fresh gateway-ping
	// result (paper §4.3).
	PingValid bool
	PingOK    bool

	// AppFailed reports that the sender has declared its own application
	// dead (the witness majority convicted it); the receiver should take
	// the recovery action immediately.
	AppFailed bool

	Conns []ConnState
}

// Encode serialises the message.
func (m *Message) Encode() ([]byte, error) {
	if len(m.Conns) > maxConns {
		return nil, fmt.Errorf("%w: %d", ErrTooMany, len(m.Conns))
	}
	buf := make([]byte, headerLen+connLen*len(m.Conns))
	binary.BigEndian.PutUint16(buf[0:], magic)
	buf[2] = version
	buf[3] = uint8(m.Role)
	binary.BigEndian.PutUint64(buf[4:], m.Seq)
	var flags uint8
	if m.PingValid {
		flags |= msgFlagPingValid
	}
	if m.PingOK {
		flags |= msgFlagPingOK
	}
	if m.AppFailed {
		flags |= msgFlagAppFailed
	}
	buf[12] = flags
	binary.BigEndian.PutUint16(buf[13:], uint16(len(m.Conns)))
	off := headerLen
	for i := range m.Conns {
		c := &m.Conns[i]
		copy(buf[off:], c.RemoteAddr[:])
		binary.BigEndian.PutUint16(buf[off+4:], c.RemotePort)
		binary.BigEndian.PutUint16(buf[off+6:], c.LocalPort)
		binary.BigEndian.PutUint32(buf[off+8:], c.ISS)
		binary.BigEndian.PutUint32(buf[off+12:], c.IRS)
		binary.BigEndian.PutUint32(buf[off+16:], c.LastByteReceived)
		binary.BigEndian.PutUint32(buf[off+20:], c.LastAckReceived)
		binary.BigEndian.PutUint32(buf[off+24:], c.LastAppByteWritten)
		binary.BigEndian.PutUint32(buf[off+28:], c.LastAppByteRead)
		var cf uint8
		if c.FINGenerated {
			cf |= connFlagFIN
		}
		if c.RSTGenerated {
			cf |= connFlagRST
		}
		if c.PeerFINSeen {
			cf |= connFlagPeerFIN
		}
		if c.Established {
			cf |= connFlagEstab
		}
		if c.FINGated {
			cf |= connFlagFINTapped
		}
		buf[off+32] = cf
		off += connLen
	}
	return buf, nil
}

// Decode parses buf.
func Decode(buf []byte) (Message, error) {
	if len(buf) < headerLen {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrTooShort, len(buf))
	}
	if binary.BigEndian.Uint16(buf[0:]) != magic {
		return Message{}, ErrBadMagic
	}
	if buf[2] != version {
		return Message{}, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	var m Message
	m.Role = Role(buf[3])
	m.Seq = binary.BigEndian.Uint64(buf[4:])
	m.PingValid = buf[12]&msgFlagPingValid != 0
	m.PingOK = buf[12]&msgFlagPingOK != 0
	m.AppFailed = buf[12]&msgFlagAppFailed != 0
	n := int(binary.BigEndian.Uint16(buf[13:]))
	if n > maxConns {
		return Message{}, fmt.Errorf("%w: %d", ErrTooMany, n)
	}
	if len(buf) < headerLen+n*connLen {
		return Message{}, fmt.Errorf("%w: want %d conns in %d bytes", ErrTruncated, n, len(buf))
	}
	m.Conns = make([]ConnState, n)
	off := headerLen
	for i := 0; i < n; i++ {
		c := &m.Conns[i]
		copy(c.RemoteAddr[:], buf[off:])
		c.RemotePort = binary.BigEndian.Uint16(buf[off+4:])
		c.LocalPort = binary.BigEndian.Uint16(buf[off+6:])
		c.ISS = binary.BigEndian.Uint32(buf[off+8:])
		c.IRS = binary.BigEndian.Uint32(buf[off+12:])
		c.LastByteReceived = binary.BigEndian.Uint32(buf[off+16:])
		c.LastAckReceived = binary.BigEndian.Uint32(buf[off+20:])
		c.LastAppByteWritten = binary.BigEndian.Uint32(buf[off+24:])
		c.LastAppByteRead = binary.BigEndian.Uint32(buf[off+28:])
		cf := buf[off+32]
		c.FINGenerated = cf&connFlagFIN != 0
		c.RSTGenerated = cf&connFlagRST != 0
		c.PeerFINSeen = cf&connFlagPeerFIN != 0
		c.Established = cf&connFlagEstab != 0
		c.FINGated = cf&connFlagFINTapped != 0
		off += connLen
	}
	return m, nil
}

// EncodedSize returns the wire size of a heartbeat carrying n connections.
func EncodedSize(n int) int { return headerLen + n*connLen }

// ConnsPerMessage returns how many connection entries fit in a message of
// at most maxBytes.
func ConnsPerMessage(maxBytes int) int {
	n := (maxBytes - headerLen) / connLen
	if n < 0 {
		return 0
	}
	return n
}

// Split encodes the message as one or more wire chunks, each at most
// maxBytes, fragmenting the connection list as needed. Every fragment is a
// self-contained heartbeat (same role, sequence number, and ping flags)
// carrying a subset of the connections, so receivers need no reassembly.
func (m *Message) Split(maxBytes int) ([][]byte, error) {
	perMsg := ConnsPerMessage(maxBytes)
	if len(m.Conns) <= perMsg || perMsg == 0 {
		raw, err := m.Encode()
		if err != nil {
			return nil, err
		}
		return [][]byte{raw}, nil
	}
	var out [][]byte
	for start := 0; start < len(m.Conns); start += perMsg {
		end := start + perMsg
		if end > len(m.Conns) {
			end = len(m.Conns)
		}
		frag := *m
		frag.Conns = m.Conns[start:end]
		raw, err := frag.Encode()
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}

// Unwrap32 reconstructs a 64-bit stream position from its 32-bit wire form,
// using a local 64-bit position known to be within ±2^31 of the true value.
func Unwrap32(wire uint32, local int64) int64 {
	return local + int64(int32(wire-uint32(uint64(local))))
}

// Wrap32 truncates a 64-bit stream position to its 32-bit wire form.
func Wrap32(v int64) uint32 { return uint32(uint64(v)) }
