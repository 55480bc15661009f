package app

import (
	"fmt"
	"strconv"
	"strings"

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
	replica[serveState]

	// CloseAfterServe closes the connection after the response bytes.
	CloseAfterServe bool
	// MaxChunk bounds each Write call (0 means 16 KiB).
	MaxChunk int

	// chunk is the one scratch area every pump fills and writes from;
	// Write copies out of it before returning.
	chunk []byte

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
	return &DataServer{replica: newReplica[serveState](name, tracer, "application", "no cleanup, no FIN")}
}

// Name returns the server's trace name.
func (s *DataServer) Name() string { return s.name }

// Accept adopts an established connection.
func (s *DataServer) Accept(c *tcp.Conn) {
	st := &serveState{}
	s.adopt(c, st)
	readable, writable := func() { s.readable(c, st) }, func() { s.writable(c, st) }
	c.OnReadable = func() { s.run(&st.deferred, readable) }
	c.OnWritable = func() { s.run(&st.deferred, writable) }
	// Data may already be buffered (replica force-established or request
	// segment processed before accept).
	s.readable(c, st)
}

// ActiveConns reports the number of live connections.
func (s *DataServer) ActiveConns() int { return len(s.conns) }

func (s *DataServer) readable(c *tcp.Conn, st *serveState) {
	if s.crashed {
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
		s.tracer.EmitValue(trace.KindGeneric, s.name, nbytes, "request for %d bytes on %v", nbytes, c.ID())
		s.writable(c, st)
	}
}

// writable pumps response bytes until the send buffer is full or the
// response is complete.
func (s *DataServer) writable(c *tcp.Conn, st *serveState) {
	if s.crashed || !st.started {
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
