package app

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"

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
	replica[serveConn]

	// CloseAfterServe closes the connection after the response bytes.
	CloseAfterServe bool

	// BytesServed totals response bytes written across connections.
	BytesServed int64
	// RequestsServed counts parsed requests.
	RequestsServed int64
}

// serveConn is one connection's service: its methods are the connection's
// callbacks, and it is the source its response is read from (ReadAt).
type serveConn struct {
	s        *DataServer
	c        *tcp.Conn
	reqBuf   []byte // a request line that came in pieces
	shift    int64  // the pattern offset of stream offset 0 (the request's offset, less the stream's start)
	remain   int64  // response bytes still to write
	started  bool
	deferred bool // a starved pump is already scheduled
}

// NewDataServer builds a server; attach it with Accept (typically
// node.OnAccept = server.Accept).
func NewDataServer(name string, tracer *trace.Recorder) *DataServer {
	return &DataServer{replica: newReplica[serveConn](name, tracer, "application", "no cleanup, no FIN")}
}

// Accept adopts an established connection.
func (s *DataServer) Accept(c *tcp.Conn) {
	sc := &serveConn{s: s, c: c}
	s.adopt(c, sc)
	c.OnReadable = sc.onReadable
	c.OnWritable = sc.onWritable
	// Data may already be buffered (replica force-established or request
	// segment processed before accept).
	sc.readable()
}

func (sc *serveConn) onReadable() {
	if sc.s.inline() {
		sc.readable()
		return
	}
	sc.s.starve(&sc.deferred, sc.readable)
}

func (sc *serveConn) onWritable() {
	if sc.s.inline() {
		sc.writable()
		return
	}
	sc.s.starve(&sc.deferred, sc.writable)
}

// readable consumes what the client sent in place: the request line,
// parsed where it lies when it came whole or gathered in reqBuf until its
// newline is in, and anything after it.
func (sc *serveConn) readable() {
	s, c := sc.s, sc.c
	if s.crashed {
		return
	}
	first, second, _ := c.Peek(c.Buffered())
	n := len(first) + len(second)
	if n == 0 {
		return
	}
	if sc.started {
		c.Discard(n) // drain anything after the request line
		return
	}
	line := first
	if len(sc.reqBuf) > 0 || bytes.IndexByte(first, '\n') < 0 {
		sc.reqBuf = append(append(sc.reqBuf, first...), second...)
		line = sc.reqBuf
	}
	idx := bytes.IndexByte(line, '\n')
	if idx < 0 {
		c.Discard(n)
		return
	}
	nbytes, off, err := parseRequest(line[:idx])
	c.Discard(n)
	if err != nil {
		c.Abort()
		return
	}
	sc.reqBuf = nil
	sc.started = true
	sc.shift = off - c.LastAppByteWritten()
	sc.remain = nbytes
	s.RequestsServed++
	s.tracer.EmitValue(trace.KindGeneric, s.name, nbytes, "request for %d bytes on %v", nbytes, c.ID())
	sc.writable()
}

// writable appends as much of the response as the send buffer takes, until
// the buffer is full or the response complete. The buffer stores none of
// it: sc is its source, and the stack reads each byte as a segment carrying
// it goes out.
func (sc *serveConn) writable() {
	s, c := sc.s, sc.c
	if s.crashed || !sc.started {
		return
	}
	if sc.remain > 0 {
		written, err := c.WriteFrom(int(min(int64(c.WriteSpace()), sc.remain)), sc)
		if err != nil || written == 0 {
			return
		}
		sc.remain -= int64(written)
		s.BytesServed += int64(written)
	}
	if sc.remain == 0 && s.CloseAfterServe {
		sc.started = false // single-shot service
		_ = c.Close()
	}
}

// ReadAt writes the response bytes at stream offset off into p: the
// pattern, shifted to start at the request's offset. The same offset
// always gives the same bytes, as Conn.WriteFrom requires, and a crashed
// server still gives them: they were handed to the stack, which a real
// kernel keeps.
func (sc *serveConn) ReadAt(p []byte, off int64) (int, error) {
	FillPattern(off+sc.shift, p)
	return len(p), nil
}

// parseRequest parses "GET <nbytes>" or the resuming form
// "GET <nbytes> <offset>" (the offset restarts the pattern mid-stream, so a
// baseline client that reconnects can resume a broken transfer), its
// fields split as strings.Fields splits.
func parseRequest(line []byte) (n, off int64, err error) {
	var fields [4][]byte // a fourth means too many
	k := 0
	for rest := line; k < len(fields); k++ {
		if fields[k], rest = cutField(rest); len(fields[k]) == 0 {
			break
		}
	}
	if (k != 2 && k != 3) || string(fields[0]) != "GET" {
		return 0, 0, fmt.Errorf("app: malformed request %q", line)
	}
	n, err = strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("app: bad byte count %q", fields[1])
	}
	if k == 3 {
		off, err = strconv.ParseInt(string(fields[2]), 10, 64)
		if err != nil || off < 0 {
			return 0, 0, fmt.Errorf("app: bad offset %q", fields[2])
		}
	}
	return n, off, nil
}

// cutField returns the first field of b, delimited by Unicode white space
// as strings.Fields delimits it, and what follows.
func cutField(b []byte) (field, rest []byte) {
	space := func(b []byte) (bool, int) {
		r, w := utf8.DecodeRune(b)
		return unicode.IsSpace(r), w
	}
	i := 0
	for i < len(b) {
		sp, w := space(b[i:])
		if !sp {
			break
		}
		i += w
	}
	j := i
	for j < len(b) {
		sp, w := space(b[j:])
		if sp {
			break
		}
		j += w
	}
	return b[i:j], b[j:]
}

// AppendRequest appends the request line for n bytes to b.
func AppendRequest(b []byte, n int64) []byte {
	return append(strconv.AppendInt(append(b, "GET "...), n, 10), '\n')
}

// FormatResumeRequest renders the request line for n bytes starting at
// pattern offset off.
func FormatResumeRequest(n, off int64) string {
	return "GET " + strconv.FormatInt(n, 10) + " " + strconv.FormatInt(off, 10) + "\n"
}
