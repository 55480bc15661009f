package app

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/tcp"
	"repro/internal/trace"
)

// pumpSample is the server connection's write position after one
// application callback, with the virtual instant it ran at.
type pumpSample struct {
	at      time.Time
	written int64
}

// offerWholeChunks is a pump through Conn.Write: every Write offers a
// whole chunk (or all that remains) and the connection clips it to its
// free space. It is the reference the sourced pump must be
// indistinguishable from, seen from the connection.
func offerWholeChunks(c *tcp.Conn, chunk int, off, remain *int64) {
	p := make([]byte, chunk)
	for *remain > 0 {
		n := min(int64(len(p)), *remain)
		FillPattern(*off, p[:n])
		written, err := c.Write(p[:n])
		if err != nil || written == 0 {
			return
		}
		*off += int64(written)
		*remain -= int64(written)
	}
}

// servePumps downloads size bytes into a client whose receive buffer holds
// recvBuf bytes and returns LastAppByteWritten after every callback on the
// server's connection. accept installs the server application on the
// connection and returns nothing: it is DataServer.Accept or the reference.
func servePumps(t *testing.T, recvBuf int, size int64, accept func(*tcp.Conn)) []pumpSample {
	t.Helper()
	f := newFixtureOpts(t, 11, tcp.Options{RecvBufferSize: recvBuf})
	l, err := f.server.Listen(addrServer, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var samples []pumpSample
	l.OnEstablished = func(c *tcp.Conn) {
		accept(c)
		note := func() { samples = append(samples, pumpSample{f.sim.Now(), c.LastAppByteWritten()}) }
		note()
		readable, writable := c.OnReadable, c.OnWritable
		c.OnReadable = func() { readable(); note() }
		c.OnWritable = func() { writable(); note() }
	}
	cl := NewStreamClient(ClientConfig{
		Name: "client/app", Stack: f.client,
		Service: addrServer, Port: 80,
		Request: size, Tracer: f.tracer,
	})
	if err := cl.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	_ = f.sim.Run(time.Minute)
	if !cl.Done || cl.Err != nil || cl.Received != size || cl.VerifyFailures != 0 {
		t.Fatalf("client: done=%v err=%v received=%d of %d, %d verify failures",
			cl.Done, cl.Err, cl.Received, size, cl.VerifyFailures)
	}
	return samples
}

// TestDataServerPumpMatchesWholeChunkOffers: appending the response as
// bytes the stack reads from the server must not change what the
// connection sees.
// The response outgrows the 256 KiB send buffer, so the pump runs on a full
// buffer that each acknowledgement frees a window's worth of: for a client
// receive buffer (buf) smaller than, equal to and larger than the old 16 KiB
// chunk, the write position after every pump — the LastAppByteWritten each
// heartbeat reports — is at every virtual instant what a pump through
// Conn.Write produced, offering the whole response (chunk "whole"), one MSS
// or 16 KiB per Write, and the client verifies every byte.
func TestDataServerPumpMatchesWholeChunkOffers(t *testing.T) {
	const size = 300_007
	for _, recvBuf := range []int{4096, 16 << 10, 256 << 10} {
		for _, chunk := range []int{1460, 16 << 10, size} {
			name := fmt.Sprintf("buf%d/chunk%d", recvBuf, chunk)
			if chunk == size {
				name = fmt.Sprintf("buf%d/whole", recvBuf)
			}
			t.Run(name, func(t *testing.T) {
				srv := NewDataServer("server/app", nil)
				got := servePumps(t, recvBuf, size, srv.Accept)
				if srv.BytesServed != size {
					t.Fatalf("BytesServed = %d, want %d", srv.BytesServed, size)
				}

				want := servePumps(t, recvBuf, size, func(c *tcp.Conn) {
					off, remain, started := int64(0), int64(0), false
					buf := make([]byte, 512)
					c.OnReadable = func() {
						for {
							n, _ := c.Read(buf)
							if n == 0 {
								break
							}
							if !started {
								started, remain = true, size
							}
						}
						offerWholeChunks(c, chunk, &off, &remain)
					}
					c.OnWritable = func() { offerWholeChunks(c, chunk, &off, &remain) }
				})

				if len(got) != len(want) {
					t.Fatalf("%d pumps, reference %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pump %d: written %d at %v, reference %d at %v",
							i, got[i].written, got[i].at, want[i].written, want[i].at)
					}
				}
				if last := got[len(got)-1].written; last != size {
					t.Fatalf("last write position %d, want %d", last, size)
				}
				if len(got) < 3 {
					t.Fatalf("only %d pumps: the transfer never filled the send buffer", len(got))
				}
			})
		}
	}
}

// parkedServer returns a DataServer connection sitting on a full send
// buffer with most of its response still to write: the client asked for
// more than the run delivers and reads none of it.
func parkedServer(t *testing.T) (*DataServer, *tcp.Conn, *serveConn) {
	t.Helper()
	f := newFixture(t, 12)
	srv := NewDataServer("server/app", nil)
	l, err := f.server.Listen(addrServer, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var conn *tcp.Conn
	l.OnEstablished = func(c *tcp.Conn) { conn = c; srv.Accept(c) }
	c, err := f.client.Dial(addrClient, addrServer, 80)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.OnEstablished = func() { _, _ = c.Write(AppendRequest(nil, 1<<30)) }
	_ = f.sim.Run(2 * time.Second)
	if conn == nil || conn.WriteSpace() != 0 || srv.BytesServed == 0 {
		t.Fatalf("set-up: server connection %v not parked on a full send buffer", conn)
	}
	return srv, conn, srv.conns[conn]
}

// TestDataServerPumpDoesNotAllocate is the gate a 16 KiB scratch chunk per
// pump slipped past: a pump allocates nothing — neither the wake-up that
// finds the send buffer still full (most of them, on a window-limited
// connection) nor the WriteFrom of the next bytes when there is room.
func TestDataServerPumpDoesNotAllocate(t *testing.T) {
	srv, conn, st := parkedServer(t)
	if n := testing.AllocsPerRun(1000, func() { st.writable() }); n != 0 {
		t.Fatalf("pump on a full send buffer allocated %.1f times, want 0", n)
	}

	// A response larger than the send buffer, read as it comes; then the
	// client stops reading, and the server's next bytes close its small
	// receive window, so the pumps below append to the send buffer and
	// send nothing.
	f := newFixtureOpts(t, 12, tcp.Options{RecvBufferSize: 4096})
	srv = NewDataServer("server/app", nil)
	l, err := f.server.Listen(addrServer, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l.OnEstablished = func(c *tcp.Conn) { conn = c; srv.Accept(c) }
	c, err := f.client.Dial(addrClient, addrServer, 80)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const size = 300_000
	c.OnEstablished = func() { _, _ = c.Write(AppendRequest(nil, size)) }
	sink := make([]byte, 4096)
	c.OnReadable = func() {
		for n, _ := c.Read(sink); n > 0; n, _ = c.Read(sink) {
		}
	}
	_ = f.sim.Run(5 * time.Second)
	st = srv.conns[conn]
	if st == nil || srv.BytesServed != size || conn.WriteSpace() != 256<<10 { // the send buffer's size
		t.Fatalf("set-up: served %d of %d bytes, %v bytes free", srv.BytesServed, size, conn.WriteSpace())
	}
	c.OnReadable = nil
	st.remain = 2 * 4096
	st.writable()
	_ = f.sim.Run(time.Second)
	const runs, each = 1000, 100
	if n := testing.AllocsPerRun(runs, func() {
		st.remain = each
		st.writable()
	}); n != 0 {
		t.Fatalf("a pump with room allocated %.1f times, want 0", n)
	}
	if got, want := conn.LastAppByteWritten(), int64(size+2*4096+(runs+1)*each); got != want {
		t.Fatalf("write position %d after the pumps, want %d", got, want)
	}
}

// TestClientDeliveryDoesNotAllocate is the same gate on the receiving side:
// with a tracer attached and detail off, a delivery is recorded once — one
// sample appended to the progress series — and, once the series has
// capacity, allocates nothing. A per-delivery event costs its message
// string and a slot in the recorder on every segment; with detail on that
// is paid, and the recorder shows it.
func TestClientDeliveryDoesNotAllocate(t *testing.T) {
	f := newFixture(t, 17)
	cl := NewStreamClient(ClientConfig{
		Name: "client/app", Stack: f.client,
		Service: addrServer, Port: 80,
		Request: 1 << 40, Tracer: f.tracer,
	})
	const runs = 1000
	cl.Samples = make([]ProgressSample, 0, 2*runs+2)
	p := make([]byte, tcp.DefaultMSS)
	deliver := func() {
		FillPattern(cl.Received, p)
		cl.verify(cl.Received, p[:1000], p[1000:])
		cl.deliver(len(p))
	}
	if n := testing.AllocsPerRun(runs, deliver); n != 0 {
		t.Fatalf("a delivery with detail off allocated %.1f times, want 0", n)
	}
	if len(cl.Samples) != runs+1 || cl.VerifyFailures != 0 || f.tracer.Len() != 0 {
		t.Fatalf("%d samples, %d verify failures, %d events after %d deliveries; want one sample each and nothing else",
			len(cl.Samples), cl.VerifyFailures, f.tracer.Len(), runs+1)
	}
	f.tracer.SetDetail(true)
	deliver()
	if f.tracer.Count(trace.KindAppProgress) != 1 {
		t.Fatalf("a delivery with detail on recorded %d app-progress events, want 1", f.tracer.Count(trace.KindAppProgress))
	}
}

// TestDataServerDownloadAllocBudget is TestAllocsPerSegmentBudget of
// internal/tcp with the application in the loop: a whole download through
// DataServer and StreamClient, after a warm-up one, stays within the
// per-segment budgets for objects and for bytes. The pump's per-call chunk
// read 17 KB per segment here while the stack-only test read under 1 KB.
// The response is read from the server when a segment goes out, not stored
// in a send ring: a download reads 43 B per segment, and the budget is that
// plus 17 B. A 256 KiB send ring allocated once per download, which the
// server kept before, read 131 B; grown by doubling from 16 KiB writes,
// 215 B.
func TestDataServerDownloadAllocBudget(t *testing.T) {
	f := newFixture(t, 13)
	srv := NewDataServer("server/app", nil)
	l, err := f.server.Listen(addrServer, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l.OnEstablished = srv.Accept
	const size = 2 << 20
	download := func() {
		cl := NewStreamClient(ClientConfig{
			Name: "client/app", Stack: f.client,
			Service: addrServer, Port: 80, Request: size,
		})
		if err := cl.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		_ = f.sim.Run(time.Minute)
		if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
			t.Fatalf("client: done=%v err=%v verifyFailures=%d", cl.Done, cl.Err, cl.VerifyFailures)
		}
	}
	download() // pools and free lists reach steady state

	segsBefore := f.client.Emitted + f.server.Emitted
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	download()
	runtime.ReadMemStats(&after)

	segs := float64(f.client.Emitted + f.server.Emitted - segsBefore)
	if segs < 1000 {
		t.Fatalf("only %.0f segments moved; harness broken", segs)
	}
	perSeg := float64(after.Mallocs-before.Mallocs) / segs
	bytesPerSeg := float64(after.TotalAlloc-before.TotalAlloc) / segs
	t.Logf("%.0f segments, %.2f allocs/segment, %.0f B/segment", segs, perSeg, bytesPerSeg)
	if perSeg > 6 || bytesPerSeg > 60 {
		t.Fatalf("download allocates %.2f objects and %.0f B per segment, budget 6 and 60", perSeg, bytesPerSeg)
	}
}

// TestRequestFieldsSplitAsStringsFields: the request parser splits a line
// where strings.Fields would, Unicode spaces and bad UTF-8 included.
func TestRequestFieldsSplitAsStringsFields(t *testing.T) {
	for _, line := range []string{
		"GET 10", " GET\t10  20 ", "GET 10", "GET 10\u0085 7", "\xffGET 1", "GET 1 2 3", "", "   ",
	} {
		var got []string
		for rest := []byte(line); ; {
			var f []byte
			if f, rest = cutField(rest); len(f) == 0 {
				break
			}
			got = append(got, string(f))
		}
		if want := strings.Fields(line); !slices.Equal(got, want) {
			t.Errorf("%q splits into %q, strings.Fields into %q", line, got, want)
		}
	}
	if n, off, err := parseRequest([]byte("GET 640 12")); n != 640 || off != 12 || err != nil {
		t.Errorf("parsed %d, %d, %v; want 640, 12, nil", n, off, err)
	}
}
