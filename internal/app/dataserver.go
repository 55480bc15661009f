package app

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// DataServer implements a minimal request/response file service: the client
// sends a request line "GET <nbytes>\n" and the server streams back exactly
// nbytes of the deterministic pattern, then (optionally) closes its side.
// The request line exercises the client→server direction — and with it the
// backup tap, the hold buffer, and the missed-byte recovery path — while
// the response exercises bulk server→client flow.
//
// The server supports the two application-crash injections of Demo 4:
// CrashSilent stops all socket activity without closing anything (no FIN),
// and CrashCleanup closes every connection (FIN, or RST when abort is
// requested), modelling the OS cleaning up a dead process.
type DataServer struct {
	name   string
	tracer *trace.Recorder

	// CloseAfterServe closes the connection after the response bytes.
	CloseAfterServe bool
	// MaxChunk bounds each Write call (0 means 16 KiB).
	MaxChunk int

	crashedSilent bool
	conns         map[*tcp.Conn]*serveState
	// chunk is the one scratch area every pump fills and writes from;
	// Write copies out of it before returning.
	chunk []byte

	// cpu models scheduler starvation (SetCPU), as on EchoServer.
	cpu *sim.Clock
	sm  *sim.Simulator

	// BytesServed totals response bytes written across connections.
	BytesServed int64
	// RequestsServed counts parsed requests.
	RequestsServed int64
}

type serveState struct {
	reqBuf   strings.Builder
	writeOff int64 // absolute stream offset of the next response byte
	remain   int64 // response bytes still to write
	started  bool
	deferred bool // a starved pump is already scheduled
}

// NewDataServer builds a server; attach it with Accept (typically
// node.OnAccept = server.Accept).
func NewDataServer(name string, tracer *trace.Recorder) *DataServer {
	return &DataServer{
		name:   name,
		tracer: tracer,
		conns:  make(map[*tcp.Conn]*serveState),
	}
}

// Name returns the server's trace name.
func (s *DataServer) Name() string { return s.name }

// SetCPU attaches the host's CPU clock so injected starvation stretches
// this server's processing time. Call before traffic starts.
func (s *DataServer) SetCPU(sm *sim.Simulator, cpu *sim.Clock) {
	s.sm, s.cpu = sm, cpu
}

// schedule runs fn inline at nominal CPU rate, or defers it by the
// starvation stretch, coalescing wakeups per connection.
func (s *DataServer) schedule(st *serveState, fn func()) {
	if s.cpu.Rate() == 1 || s.sm == nil {
		fn()
		return
	}
	if st.deferred {
		return
	}
	st.deferred = true
	s.sm.Schedule(s.cpu.Stretch(procQuantum)-procQuantum, func() {
		st.deferred = false
		fn()
	})
}

// Accept adopts an established connection.
func (s *DataServer) Accept(c *tcp.Conn) {
	st := &serveState{}
	s.conns[c] = st
	c.OnReadable = func() { s.schedule(st, func() { s.readable(c, st) }) }
	c.OnWritable = func() { s.schedule(st, func() { s.writable(c, st) }) }
	c.OnClose = func(error) { delete(s.conns, c) }
	// Data may already be buffered (replica force-established or request
	// segment processed before accept).
	s.readable(c, st)
}

// CrashSilent simulates an application crash without cleanup (§4.2.1): the
// process stops reading and writing but the OS keeps the socket open, so no
// FIN is generated.
func (s *DataServer) CrashSilent() {
	s.crashedSilent = true
	if s.tracer != nil {
		s.tracer.Emit(trace.KindAppCrash, s.name, "application crashed (no cleanup, no FIN)")
	}
}

// CrashCleanup simulates an application crash with OS cleanup (§4.2.2):
// every socket is closed, generating a FIN (or a RST when abort is true).
func (s *DataServer) CrashCleanup(abort bool) {
	s.crashedSilent = true
	if s.tracer != nil {
		s.tracer.Emit(trace.KindAppCrash, s.name, "application crashed (cleanup, abort=%v)", abort)
	}
	for c := range s.conns {
		if abort {
			c.Abort()
		} else {
			_ = c.Close()
		}
	}
}

// Crashed reports whether a crash was injected.
func (s *DataServer) Crashed() bool { return s.crashedSilent }

// StartHealthBeats runs a local timer that calls beat every interval while
// the application is healthy — the application-side half of the §4.2.2
// watchdog mechanism. A purely local timer does not affect replica
// determinism, which constrains only the socket I/O.
func (s *DataServer) StartHealthBeats(sm *sim.Simulator, interval time.Duration, beat func()) {
	sim.NewTicker(sm, interval, func() {
		if !s.crashedSilent {
			beat()
		}
	})
}

// ActiveConns reports the number of live connections.
func (s *DataServer) ActiveConns() int { return len(s.conns) }

func (s *DataServer) readable(c *tcp.Conn, st *serveState) {
	if s.crashedSilent {
		return
	}
	buf := make([]byte, 512)
	for {
		n, err := c.Read(buf)
		if n == 0 || err != nil {
			return
		}
		if st.started {
			continue // drain anything after the request line
		}
		st.reqBuf.Write(buf[:n])
		line := st.reqBuf.String()
		idx := strings.IndexByte(line, '\n')
		if idx < 0 {
			continue
		}
		nbytes, off, err := parseRequest(line[:idx])
		if err != nil {
			c.Abort()
			return
		}
		st.started = true
		st.writeOff = off
		st.remain = nbytes
		s.RequestsServed++
		if s.tracer != nil {
			s.tracer.EmitValue(trace.KindAppProgress, s.name, nbytes, "request for %d bytes on %v", nbytes, c.ID())
		}
		s.writable(c, st)
	}
}

// writable pumps response bytes until the send buffer is full or the
// response is complete.
func (s *DataServer) writable(c *tcp.Conn, st *serveState) {
	if s.crashedSilent || !st.started {
		return
	}
	for st.remain > 0 {
		chunk := s.fill(st, c.WriteSpace())
		if len(chunk) == 0 {
			return
		}
		written, err := c.Write(chunk)
		if err != nil || written == 0 {
			return
		}
		st.writeOff += int64(written)
		st.remain -= int64(written)
		s.BytesServed += int64(written)
	}
	if st.remain == 0 && s.CloseAfterServe {
		st.started = false // single-shot service
		_ = c.Close()
	}
}

// fill generates the next bytes of st's response in the server's scratch
// chunk: min(MaxChunk, remaining, space) of them, space being what the
// connection will accept. Offering only that much means no byte is
// generated twice, and Write accepts exactly what it would have accepted
// of a full chunk.
//
//sttcp:hotpath
func (s *DataServer) fill(st *serveState, space int) []byte {
	chunkSize := s.MaxChunk
	if chunkSize <= 0 {
		chunkSize = 16 << 10
	}
	if len(s.chunk) != chunkSize {
		s.chunk = make([]byte, chunkSize)
	}
	n := min(int64(chunkSize), int64(space), st.remain)
	FillPattern(st.writeOff, s.chunk[:n])
	return s.chunk[:n]
}

// parseRequest parses "GET <nbytes>" or the resuming form
// "GET <nbytes> <offset>" (the offset restarts the pattern mid-stream, so a
// baseline client that reconnects can resume a broken transfer).
func parseRequest(line string) (n, off int64, err error) {
	fields := strings.Fields(line)
	if (len(fields) != 2 && len(fields) != 3) || fields[0] != "GET" {
		return 0, 0, fmt.Errorf("app: malformed request %q", line)
	}
	n, err = strconv.ParseInt(fields[1], 10, 64)
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("app: bad byte count %q", fields[1])
	}
	if len(fields) == 3 {
		off, err = strconv.ParseInt(fields[2], 10, 64)
		if err != nil || off < 0 {
			return 0, 0, fmt.Errorf("app: bad offset %q", fields[2])
		}
	}
	return n, off, nil
}

// FormatRequest renders the request line for n bytes.
func FormatRequest(n int64) string { return "GET " + strconv.FormatInt(n, 10) + "\n" }

// FormatResumeRequest renders the request line for n bytes starting at
// pattern offset off.
func FormatResumeRequest(n, off int64) string {
	return "GET " + strconv.FormatInt(n, 10) + " " + strconv.FormatInt(off, 10) + "\n"
}
