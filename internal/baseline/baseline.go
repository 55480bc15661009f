// Package baseline implements what Demo 1 of the paper contrasts ST-TCP
// against: a conventional hot-backup deployment *without* TCP-layer fault
// tolerance. The same server application runs on both machines, but each
// listens on its own address; when the primary dies the client's TCP
// connection is simply gone, and a failover-aware client application must
// notice the stall, tear the connection down, reconnect to the backup's
// address, and resume the transfer at the application layer. The disruption
// is client-visible and requires client-side logic — exactly what ST-TCP
// eliminates.
package baseline

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// ReconnectClient downloads Request pattern bytes from a list of server
// addresses. It watches its own progress; when no data arrives for
// StallTimeout it declares the current server dead, aborts the connection,
// and reconnects to the next address, resuming at the byte where the
// transfer broke.
type ReconnectClient struct {
	sim    *sim.Simulator
	stack  *tcp.Stack
	tracer *trace.Recorder
	name   string

	servers []serverAddr
	current int

	// Request is the total bytes to download.
	Request int64
	// StallTimeout is the application-level failure detector.
	StallTimeout time.Duration

	conn *tcp.Conn

	// Received counts verified bytes across all connection attempts.
	Received int64
	// Samples is the progress series.
	Samples []app.ProgressSample
	// Reconnects counts failovers performed.
	Reconnects int
	Done       bool
	Err        error
	// VerifyFailures counts pattern mismatches (must stay 0).
	VerifyFailures int64
	// OnDone fires once at completion or terminal failure.
	OnDone func(err error)

	watchdog *sim.Event
	lastData time.Time
	started  time.Time
	finished time.Time
}

type serverAddr struct {
	addr ip.Addr
	port uint16
}

// NewReconnectClient builds a client that tries servers in order.
func NewReconnectClient(name string, stack *tcp.Stack, request int64, stallTimeout time.Duration, tracer *trace.Recorder) *ReconnectClient {
	if stallTimeout <= 0 {
		stallTimeout = 3 * time.Second
	}
	return &ReconnectClient{
		sim:          stack.Sim(),
		stack:        stack,
		tracer:       tracer,
		name:         name,
		Request:      request,
		StallTimeout: stallTimeout,
	}
}

// AddServer appends a server address to fail over to.
func (cl *ReconnectClient) AddServer(addr ip.Addr, port uint16) {
	cl.servers = append(cl.servers, serverAddr{addr: addr, port: port})
}

// Start begins the download from the first server.
func (cl *ReconnectClient) Start() error {
	if len(cl.servers) == 0 {
		return fmt.Errorf("baseline: %s: no servers configured", cl.name)
	}
	cl.started = cl.sim.Now()
	cl.lastData = cl.started
	return cl.connect()
}

func (cl *ReconnectClient) connect() error {
	srv := cl.servers[cl.current%len(cl.servers)]
	c, err := cl.stack.Dial(ip.Addr{}, srv.addr, srv.port)
	if err != nil {
		return fmt.Errorf("baseline: %s dial %v: %w", cl.name, srv.addr, err)
	}
	cl.conn = c
	remaining := cl.Request - cl.Received
	req := []byte(app.FormatResumeRequest(remaining, cl.Received))
	c.OnEstablished = func() {
		_, _ = c.Write(req)
	}
	c.OnReadable = func() { cl.readable(c) }
	c.OnClose = func(err error) { cl.connClosed(c, err) }
	cl.armWatchdog()
	return nil
}

func (cl *ReconnectClient) armWatchdog() {
	if cl.watchdog != nil {
		cl.sim.Cancel(cl.watchdog)
	}
	cl.watchdog = cl.sim.Schedule(cl.StallTimeout/4, cl.checkStall)
}

func (cl *ReconnectClient) checkStall() {
	cl.watchdog = nil
	if cl.Done {
		return
	}
	if cl.sim.Since(cl.lastData) >= cl.StallTimeout {
		cl.failover("no data for " + cl.StallTimeout.String())
		return
	}
	cl.armWatchdog()
}

// failover abandons the current connection and moves to the next server.
func (cl *ReconnectClient) failover(why string) {
	if cl.Done {
		return
	}
	if cl.tracer != nil {
		cl.tracer.Emit(trace.KindGeneric, cl.name, "reconnecting (#%d): %s", cl.Reconnects+1, why)
	}
	old := cl.conn
	cl.conn = nil
	if old != nil {
		old.OnClose = nil
		old.OnReadable = nil
		old.Abort()
	}
	cl.current++
	cl.Reconnects++
	if cl.Reconnects > 2*len(cl.servers)+4 {
		cl.finish(fmt.Errorf("baseline: %s: giving up after %d reconnects", cl.name, cl.Reconnects))
		return
	}
	cl.lastData = cl.sim.Now()
	if err := cl.connect(); err != nil {
		cl.finish(err)
	}
}

func (cl *ReconnectClient) connClosed(c *tcp.Conn, err error) {
	if cl.Done || c != cl.conn {
		return
	}
	if err == nil && cl.Received >= cl.Request {
		cl.finish(nil)
		return
	}
	why := "connection closed early"
	if err != nil {
		why = err.Error()
	}
	cl.failover(why)
}

func (cl *ReconnectClient) readable(c *tcp.Conn) {
	if cl.Done || c != cl.conn {
		return
	}
	buf := make([]byte, 32<<10)
	for {
		n, err := c.Read(buf)
		if n == 0 {
			_ = err // closure is handled via OnClose / connClosed
			return
		}
		if bad := app.VerifyPattern(cl.Received, buf[:n]); bad >= 0 {
			cl.VerifyFailures++
		}
		cl.Received += int64(n)
		cl.lastData = cl.sim.Now()
		cl.Samples = append(cl.Samples, app.ProgressSample{Time: cl.lastData, Bytes: cl.Received})
		if cl.Received >= cl.Request {
			_ = c.Close()
			cl.finish(nil)
			return
		}
	}
}

func (cl *ReconnectClient) finish(err error) {
	if cl.Done {
		return
	}
	cl.Done = true
	cl.Err = err
	cl.finished = cl.sim.Now()
	if cl.watchdog != nil {
		cl.sim.Cancel(cl.watchdog)
		cl.watchdog = nil
	}
	if cl.tracer != nil {
		if err == nil {
			cl.tracer.EmitValue(trace.KindAppDone, cl.name, cl.Received,
				"baseline client done: %d bytes, %d reconnect(s)", cl.Received, cl.Reconnects)
		} else {
			cl.tracer.Emit(trace.KindAppDone, cl.name, "baseline client failed: %v", err)
		}
	}
	if cl.OnDone != nil {
		cl.OnDone(err)
	}
}

// Elapsed is the transfer duration (through completion, or until now).
func (cl *ReconnectClient) Elapsed() time.Duration {
	end := cl.finished
	if end.IsZero() {
		end = cl.sim.Now()
	}
	return end.Sub(cl.started)
}

// MaxGap returns the largest interval between consecutive progress
// samples — the client-visible service disruption.
func (cl *ReconnectClient) MaxGap() (gap time.Duration, around time.Time) {
	return app.MaxGap(cl.started, cl.Samples)
}
