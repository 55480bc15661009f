// Package serial emulates the RS-232 null-modem cable that carries ST-TCP's
// secondary heartbeat link (paper §3). The port delivers length-prefixed
// messages at a configurable line rate (default 115 200 bit/s), so the
// paper's capacity analysis — a sub-20-byte heartbeat every 200 ms supports
// roughly 100 simultaneous connections — can be measured rather than merely
// asserted.
package serial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/sim"
)

// DefaultBitsPerSecond is the classic top RS-232 rate.
const DefaultBitsPerSecond = 115_200

// MaxMessageLen bounds a single framed message.
const MaxMessageLen = 4096

// Port errors.
var (
	ErrPortDown    = errors.New("serial: port down")
	ErrMessageSize = errors.New("serial: message too large")
	ErrNotWired    = errors.New("serial: port not connected")
)

// BitsPerByte accounts for the RS-232 framing overhead: start bit, 8 data
// bits, stop bit.
const BitsPerByte = 10

// Port is one end of a null-modem connection. Messages are framed with a
// 2-byte length prefix and delivered whole to the peer's handler after the
// serialization delay; the line transmits one message at a time.
type Port struct {
	sim     *sim.Simulator
	name    string
	rate    int64
	peer    *Port
	handler func(msg []byte)
	busyTil time.Time
	down    bool

	// corruptRate flips one random bit per in-flight message with this
	// probability, modelling a noisy line.
	corruptRate float64

	// TxMessages, TxBytes, RxMessages count traffic for the capacity
	// experiment.
	TxMessages int64
	TxBytes    int64
	RxMessages int64
	Drops      int64
	// CRCErrors counts messages the receiver rejected because the frame
	// check sequence did not match — the serial CRC reject path of the
	// gray fault model. Rejected messages also count as Drops.
	CRCErrors int64
}

// NewPair creates two ports wired to each other at the given line rate
// (bits per second; 0 selects DefaultBitsPerSecond).
func NewPair(s *sim.Simulator, nameA, nameB string, rate int64) (*Port, *Port) {
	if rate <= 0 {
		rate = DefaultBitsPerSecond
	}
	a := &Port{sim: s, name: nameA, rate: rate}
	b := &Port{sim: s, name: nameB, rate: rate}
	a.peer, b.peer = b, a
	return a, b
}

// SetHandler registers the message-received callback.
func (p *Port) SetHandler(h func(msg []byte)) { p.handler = h }

// SetDown cuts or restores this end of the cable. While down, the port
// neither sends nor receives.
func (p *Port) SetDown(down bool) { p.down = down }

// SetCorruptRate makes this transmitter flip one random bit in each
// outgoing message with probability prob. The damaged message still
// rides the wire; the receiving port's CRC check rejects it and counts a
// CRCError. Zero disables corruption.
func (p *Port) SetCorruptRate(prob float64) { p.corruptRate = prob }

// QueueDelay reports how long a message sent now would wait before its
// first bit goes on the wire, a direct measure of serial-link saturation.
func (p *Port) QueueDelay() time.Duration {
	d := p.busyTil.Sub(p.sim.Now())
	if d < 0 {
		return 0
	}
	return d
}

// Send frames msg and transmits it to the peer. Messages queue behind the
// transmitter; each is delivered in one piece after its serialization time.
func (p *Port) Send(msg []byte) error {
	if p.down {
		return fmt.Errorf("%w: %s", ErrPortDown, p.name)
	}
	if p.peer == nil {
		return fmt.Errorf("%w: %s", ErrNotWired, p.name)
	}
	if len(msg) > MaxMessageLen {
		return fmt.Errorf("%w: %d bytes", ErrMessageSize, len(msg))
	}
	framed := make([]byte, 2+len(msg))
	binary.BigEndian.PutUint16(framed, uint16(len(msg)))
	copy(framed[2:], msg)

	// Frame check sequence, computed before any line noise touches the
	// copy. The CRC travels out of band of the byte budget: the 2-byte
	// length prefix already stands in for the real line discipline's
	// framing+FCS overhead, so the serialization accounting is unchanged.
	fcs := crc32.ChecksumIEEE(framed[2:])
	if p.corruptRate > 0 && len(msg) > 0 && p.sim.Rand().Float64() < p.corruptRate {
		bit := p.sim.Rand().Int63n(int64(len(msg)) * 8)
		framed[2+bit/8] ^= 1 << (bit % 8)
	}

	start := p.sim.Now()
	if start.Before(p.busyTil) {
		start = p.busyTil
	}
	bits := int64(len(framed)) * BitsPerByte
	txTime := time.Duration(bits * int64(time.Second) / p.rate)
	p.busyTil = start.Add(txTime)
	p.TxMessages++
	p.TxBytes += int64(len(framed))

	peer := p.peer
	p.sim.At(p.busyTil, func() {
		if p.down || peer.down {
			peer.Drops++
			return
		}
		body := framed[2:]
		if crc32.ChecksumIEEE(body) != fcs {
			peer.CRCErrors++
			peer.Drops++
			return
		}
		peer.RxMessages++
		if peer.handler != nil {
			peer.handler(body)
		}
	})
	return nil
}
