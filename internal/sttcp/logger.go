package sttcp

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ip"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Logger is the optional third machine the paper sketches for the
// output-commit problem (§4.3 and [2]): if the primary crashes while the
// backup is still retrieving missed client bytes, those bytes are gone —
// the primary already acknowledged them, so the client will never
// retransmit. The logger passively taps the client→service traffic through
// the same multicast Ethernet group as the servers, reassembles each
// connection's in-order client byte stream, and answers the same recovery
// protocol the primary's hold buffer serves; the backup falls back to it at
// takeover.
//
// The logger is entirely passive on the data path: it never transmits a
// TCP segment, only recovery-data datagrams on the control port.
type Logger struct {
	host    *cluster.Host
	cfg     Config
	tracer  *trace.Recorder
	comp    string
	streams map[tcp.ConnID]*streamLog

	// Served counts recovery-data datagrams sent.
	Served int64
}

// streamLog reassembles one connection's client→server byte stream.
type streamLog struct {
	irs  uint32
	data []byte // contiguous from offset base
	base int64  // first retained offset (>0 once evicted)
	next int64  // base + len(data)
	ooo  []oooChunk
	cap  int
}

type oooChunk struct {
	off  int64
	data []byte
}

// NewLogger builds a logger on host. The host's stack must have the
// service alias and its NIC must be joined to the service multicast group
// (the testbed builder does both).
func NewLogger(host *cluster.Host, cfg Config) *Logger {
	cfg.fillDefaults()
	lg := &Logger{
		host:    host,
		cfg:     cfg,
		tracer:  host.Tracer(),
		comp:    host.Name() + "/logger",
		streams: make(map[tcp.ConnID]*streamLog),
	}
	return lg
}

// Start attaches the logger to the host's IP stack.
func (lg *Logger) Start() error {
	ns := lg.host.Netstack()
	ns.AddAlias(lg.cfg.ServiceAddr)
	ns.RegisterTCP(lg.handlePacket)
	if err := ns.UDPListen(DefaultCtrlPort, lg.handleCtrl); err != nil {
		return fmt.Errorf("sttcp: logger: %w", err)
	}
	return nil
}

// Streams reports how many connections the logger is tracking.
func (lg *Logger) Streams() int { return len(lg.streams) }

// handlePacket ingests one tapped client→service TCP packet.
func (lg *Logger) handlePacket(pkt ip.Packet) {
	if pkt.Dst != lg.cfg.ServiceAddr {
		return
	}
	seg, err := tcp.Decode(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil || seg.DstPort != lg.cfg.ServicePort {
		return
	}
	id := tcp.ConnID{
		LocalAddr:  pkt.Dst,
		LocalPort:  seg.DstPort,
		RemoteAddr: pkt.Src,
		RemotePort: seg.SrcPort,
	}
	s, ok := lg.streams[id]
	if !ok {
		if !seg.Flags.Has(tcp.FlagSYN) {
			return // missed the SYN: offsets would be ambiguous
		}
		s = &streamLog{irs: seg.Seq, cap: lg.cfg.HoldBufferSize}
		lg.streams[id] = s
		if lg.tracer != nil {
			lg.tracer.Emit(trace.KindGeneric, lg.comp, "logging client stream of %v", id)
		}
		return
	}
	if len(seg.Payload) == 0 {
		return
	}
	// Stream offset of this payload: offset 0 is the byte after the SYN.
	off := int64(int32(seg.Seq - (s.irs + 1)))
	s.accept(off, seg.Payload)
}

func (s *streamLog) accept(off int64, payload []byte) {
	if off < s.base {
		skip := s.base - off
		if skip >= int64(len(payload)) {
			return
		}
		payload = payload[skip:]
		off = s.base
	}
	switch {
	case off > s.next:
		s.insertOOO(off, payload)
		return
	case off < s.next:
		skip := s.next - off
		if skip >= int64(len(payload)) {
			return
		}
		payload = payload[skip:]
	}
	s.data = append(s.data, payload...)
	s.next += int64(len(payload))
	s.drainOOO()
	s.evict()
}

func (s *streamLog) insertOOO(off int64, payload []byte) {
	s.ooo = append(s.ooo, oooChunk{off: off, data: bytes.Clone(payload)})
	// Keep sorted by offset (insertion into a short slice).
	for i := len(s.ooo) - 1; i > 0 && s.ooo[i].off < s.ooo[i-1].off; i-- {
		s.ooo[i], s.ooo[i-1] = s.ooo[i-1], s.ooo[i]
	}
}

func (s *streamLog) drainOOO() {
	for len(s.ooo) > 0 && s.ooo[0].off <= s.next {
		c := s.ooo[0]
		s.ooo = s.ooo[1:]
		if c.off+int64(len(c.data)) <= s.next {
			continue
		}
		s.data = append(s.data, c.data[s.next-c.off:]...)
		s.next = c.off + int64(len(c.data))
	}
}

// evict drops the oldest bytes beyond capacity, bounding logger memory.
func (s *streamLog) evict() {
	if over := len(s.data) - s.cap; over > 0 {
		remaining := copy(s.data, s.data[over:])
		s.data = s.data[:remaining]
		s.base += int64(over)
	}
}

// errLogEvicted reports a recovery request below the retained window.
var errLogEvicted = errors.New("sttcp: logger evicted the requested bytes")

// slice returns logged bytes [from, to); to < 0 means everything retained.
func (s *streamLog) slice(from, to int64) ([]byte, error) {
	if to < 0 || to > s.next {
		to = s.next
	}
	if from < s.base {
		return nil, errLogEvicted
	}
	if from >= to {
		return nil, nil
	}
	return s.data[from-s.base : to-s.base], nil
}

// handleCtrl answers recovery requests from either server.
func (lg *Logger) handleCtrl(src ip.Addr, srcPort uint16, payload []byte) {
	kind, err := ctrlKind(payload)
	if err != nil || kind != ctrlRecoveryRequest {
		return
	}
	m, err := decodeRecoveryRequest(payload)
	if err != nil {
		return
	}
	id := connKey(lg.cfg.ServiceAddr, m.RemoteAddr, m.RemotePort, m.LocalPort)
	s, ok := lg.streams[id]
	if !ok {
		return
	}
	data, err := s.slice(m.From, m.To)
	if err != nil || len(data) == 0 {
		return
	}
	if lg.tracer != nil {
		lg.tracer.EmitValue(trace.KindByteRecovery, lg.comp, int64(len(data)),
			"serving %d logged bytes [%d,…) of %v to %v", len(data), m.From, id, src)
	}
	for off := 0; off < len(data); off += recoveryChunk {
		end := off + recoveryChunk
		if end > len(data) {
			end = len(data)
		}
		resp := recoveryDataMsg{
			RemoteAddr: m.RemoteAddr,
			RemotePort: m.RemotePort,
			LocalPort:  m.LocalPort,
			Off:        m.From + int64(off),
			Data:       data[off:end],
		}
		if lg.host.Netstack().UDPSend(DefaultCtrlPort, src, DefaultCtrlPort, resp.encode()) == nil {
			lg.Served++
		}
	}
}
