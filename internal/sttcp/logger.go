package sttcp

import (
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
// protocol the primary's held receive buffer serves; the backup falls back
// to it at takeover.
//
// The logger is entirely passive on the data path: it never transmits a
// TCP segment, only recovery-data datagrams on the control port.
type Logger struct {
	host    *cluster.Host
	cfg     Config
	tracer  *trace.Recorder
	comp    string
	streams map[tcp.ConnID]*loggedStream

	// Served counts recovery-data datagrams sent.
	Served int64
}

// loggedStream is one connection's client→server byte stream: tapped
// segments reassembled into a log that retains the newest holdBufferSize
// bytes. The same size bounds what waits out of order behind a hole, so a
// stream costs the logger at most twice that.
type loggedStream struct {
	irs uint32
	*tcp.Reassembler
	log *tcp.Window
}

func newLoggedStream(irs uint32, capacity int) *loggedStream {
	return &loggedStream{irs: irs, Reassembler: tcp.NewReassembler(capacity), log: tcp.NewWindow(capacity)}
}

// retain appends newly in-order bytes to the log, evicting the oldest to
// make room; of more than a whole log's worth only the tail is kept.
func (s *loggedStream) retain(p []byte) {
	capacity := s.log.Len() + s.log.Free()
	s.log.Release(s.log.End() + int64(len(p)-capacity))
	s.log.Write(p[max(0, len(p)-capacity):])
}

// NewLogger builds a logger on host. The host's stack must have the
// service alias and its NIC must be joined to the service multicast group
// (the testbed builder does both).
func NewLogger(host *cluster.Host, cfg Config) *Logger {
	cfg.fillDefaults()
	return &Logger{
		host:    host,
		cfg:     cfg,
		tracer:  host.Tracer(),
		comp:    host.Name() + "/logger",
		streams: make(map[tcp.ConnID]*loggedStream),
	}
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

// handlePacket ingests one tapped client→service TCP packet.
func (lg *Logger) handlePacket(pkt ip.Packet) {
	if pkt.Dst != lg.cfg.ServiceAddr {
		return
	}
	seg, err := tcp.Parse(pkt.Payload)
	if err != nil || seg.DstPort != lg.cfg.ServicePort {
		return
	}
	id := connKey(pkt.Dst, pkt.Src, seg.SrcPort, seg.DstPort)
	s, ok := lg.streams[id]
	if !ok {
		if !seg.Flags.Has(tcp.FlagSYN) {
			return // missed the SYN: offsets would be ambiguous
		}
		lg.streams[id] = newLoggedStream(seg.Seq, holdBufferSize)
		lg.tracer.Emit(trace.KindGeneric, lg.comp, "logging client stream of %v", id)
		return
	}
	if len(seg.Payload) == 0 {
		return
	}
	// Stream offset of this payload: offset 0 is the byte after the SYN.
	off := int64(int32(seg.Seq - (s.irs + 1)))
	s.Accept(off, seg.Payload, s.retain)
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
	// Below the log's base the bytes were evicted: the output-commit hole
	// a log smaller than the backup's lag leaves open.
	to := m.end(s.log.End())
	if m.From < s.log.Base() || m.From >= to {
		return
	}
	lg.tracer.EmitValue(trace.KindByteRecovery, lg.comp, to-m.From,
		"serving %d logged bytes [%d,…) of %v to %v", to-m.From, m.From, id, src)
	lg.Served += sendRecoveryData(lg.host, src, m, s.log, m.From, to)
}
