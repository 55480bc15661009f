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

// readable consumes what the client sent in place: the request line,
// gathered in reqBuf until its newline is in, and anything after it.
func (s *DataServer) readable(c *tcp.Conn, st *serveState) {
	if s.crashed {
		return
	}
	first, second, _ := c.Peek(c.Buffered())
	n := len(first) + len(second)
	if n == 0 {
		return
	}
	if !st.started {
		st.reqBuf.Write(first)
		st.reqBuf.Write(second)
	}
	c.Discard(n)
	if st.started {
		return // drain anything after the request line
	}
	line := st.reqBuf.String()
	idx := strings.IndexByte(line, '\n')
	if idx < 0 {
		return
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

// writable generates as much of the response as the send buffer takes,
// straight into it, until the buffer is full or the response complete.
func (s *DataServer) writable(c *tcp.Conn, st *serveState) {
	if s.crashed || !st.started {
		return
	}
	if st.remain > 0 {
		written, err := c.WriteFunc(int(min(int64(c.WriteSpace()), st.remain)), st.fill)
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

// fill writes the next response bytes into the send-buffer spans
// WriteFunc hands it.
//
//sttcp:hotpath
func (st *serveState) fill(first, second []byte) {
	FillPattern(st.writeOff, first)
	FillPattern(st.writeOff+int64(len(first)), second)
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
