// Package sttcp implements ST-TCP (Server fault-Tolerant TCP), the paper's
// contribution: a primary-backup extension of TCP in which an active backup
// taps the client→server traffic through a multicast Ethernet group, runs a
// deterministic replica of the server application with its output
// suppressed, tracks connection state through a dual-link heartbeat, and
// takes over the client's TCP connection — same IP address, port, and
// sequence numbers — when the primary fails. Failover is transparent to an
// unmodified client.
//
// The package covers the full failure matrix of the paper's Table 1:
// HW/OS crashes, application crashes with and without socket cleanup
// (including the MaxDelayFIN disagreement protocol of §4.2.2), NIC failures
// diagnosed through the serial heartbeat and gateway-ping arbitration
// (§4.3), and temporary network failures repaired through the missed-byte
// recovery protocol.
package sttcp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ip"
	"repro/internal/tcp"
)

// Control message types, exchanged over the inter-server UDP control
// channel (the enhanced design of §3 replaces the backup's tap of
// primary→client traffic with explicit state exchange).
type ctrlType uint8

const (
	ctrlConnOpen ctrlType = iota + 1
	ctrlRecoveryRequest
	ctrlRecoveryData
)

const ctrlMagic = 0xC7

// Control decoding errors.
var (
	errCtrlShort = errors.New("sttcp: control message too short")
	errCtrlMagic = errors.New("sttcp: bad control magic")
	errCtrlType  = errors.New("sttcp: unknown control type")
)

// connOpenMsg announces a new connection from the primary to the backup:
// the 4-tuple plus both initial sequence numbers, which is everything the
// backup needs to adopt the primary's numbering (paper §2).
type connOpenMsg struct {
	RemoteAddr ip.Addr
	RemotePort uint16
	LocalPort  uint16
	ISS        uint32
	IRS        uint32
}

func (m *connOpenMsg) encode() []byte {
	buf := make([]byte, 2+4+2+2+4+4)
	buf[0] = ctrlMagic
	buf[1] = uint8(ctrlConnOpen)
	copy(buf[2:], m.RemoteAddr[:])
	binary.BigEndian.PutUint16(buf[6:], m.RemotePort)
	binary.BigEndian.PutUint16(buf[8:], m.LocalPort)
	binary.BigEndian.PutUint32(buf[10:], m.ISS)
	binary.BigEndian.PutUint32(buf[14:], m.IRS)
	return buf
}

func decodeConnOpen(buf []byte) (connOpenMsg, error) {
	var m connOpenMsg
	if len(buf) < 18 {
		return m, errCtrlShort
	}
	copy(m.RemoteAddr[:], buf[2:])
	m.RemotePort = binary.BigEndian.Uint16(buf[6:])
	m.LocalPort = binary.BigEndian.Uint16(buf[8:])
	m.ISS = binary.BigEndian.Uint32(buf[10:])
	m.IRS = binary.BigEndian.Uint32(buf[14:])
	return m, nil
}

// recoveryRequestMsg asks the peer's hold buffer for client-stream bytes
// [From, To) of a connection (Table 1 row 5).
type recoveryRequestMsg struct {
	RemoteAddr ip.Addr
	RemotePort uint16
	LocalPort  uint16
	From, To   int64
}

func (m *recoveryRequestMsg) encode() []byte {
	buf := make([]byte, 2+4+2+2+8+8)
	buf[0] = ctrlMagic
	buf[1] = uint8(ctrlRecoveryRequest)
	copy(buf[2:], m.RemoteAddr[:])
	binary.BigEndian.PutUint16(buf[6:], m.RemotePort)
	binary.BigEndian.PutUint16(buf[8:], m.LocalPort)
	binary.BigEndian.PutUint64(buf[10:], uint64(m.From))
	binary.BigEndian.PutUint64(buf[18:], uint64(m.To))
	return buf
}

func decodeRecoveryRequest(buf []byte) (recoveryRequestMsg, error) {
	var m recoveryRequestMsg
	if len(buf) < 26 {
		return m, errCtrlShort
	}
	copy(m.RemoteAddr[:], buf[2:])
	m.RemotePort = binary.BigEndian.Uint16(buf[6:])
	m.LocalPort = binary.BigEndian.Uint16(buf[8:])
	m.From = int64(binary.BigEndian.Uint64(buf[10:]))
	m.To = int64(binary.BigEndian.Uint64(buf[18:]))
	return m, nil
}

// recoveryDataMsg carries recovered client-stream bytes back to the
// requester.
type recoveryDataMsg struct {
	RemoteAddr ip.Addr
	RemotePort uint16
	LocalPort  uint16
	Off        int64
	Data       []byte
}

func (m *recoveryDataMsg) encode() []byte {
	buf := make([]byte, 2+4+2+2+8+len(m.Data))
	buf[0] = ctrlMagic
	buf[1] = uint8(ctrlRecoveryData)
	copy(buf[2:], m.RemoteAddr[:])
	binary.BigEndian.PutUint16(buf[6:], m.RemotePort)
	binary.BigEndian.PutUint16(buf[8:], m.LocalPort)
	binary.BigEndian.PutUint64(buf[10:], uint64(m.Off))
	copy(buf[18:], m.Data)
	return buf
}

func decodeRecoveryData(buf []byte) (recoveryDataMsg, error) {
	var m recoveryDataMsg
	if len(buf) < 18 {
		return m, errCtrlShort
	}
	copy(m.RemoteAddr[:], buf[2:])
	m.RemotePort = binary.BigEndian.Uint16(buf[6:])
	m.LocalPort = binary.BigEndian.Uint16(buf[8:])
	m.Off = int64(binary.BigEndian.Uint64(buf[10:]))
	m.Data = append([]byte(nil), buf[18:]...)
	return m, nil
}

func ctrlKind(buf []byte) (ctrlType, error) {
	if len(buf) < 2 {
		return 0, errCtrlShort
	}
	if buf[0] != ctrlMagic {
		return 0, errCtrlMagic
	}
	t := ctrlType(buf[1])
	switch t {
	case ctrlConnOpen, ctrlRecoveryRequest, ctrlRecoveryData:
		return t, nil
	default:
		return 0, fmt.Errorf("%w: %d", errCtrlType, buf[1])
	}
}

// connKey converts control-message addressing into the local connection
// identity (both servers address the replicated connection with the shared
// service address as the local half).
func connKey(service ip.Addr, remoteAddr ip.Addr, remotePort, localPort uint16) tcp.ConnID {
	return tcp.ConnID{LocalAddr: service, LocalPort: localPort, RemoteAddr: remoteAddr, RemotePort: remotePort}
}
