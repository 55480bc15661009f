package app

import (
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// ReconnectClient is what Demo 1 of the paper contrasts ST-TCP against: the
// client of a conventional hot-backup deployment *without* TCP-layer fault
// tolerance. The same server application runs on both machines, each on its
// own address; when the primary dies the client's TCP connection is simply
// gone, and this failover-aware client must notice the stall itself, tear
// the connection down, reconnect to the next address and resume the
// download of Request pattern bytes at the byte where it broke. The
// disruption is client-visible and requires client-side logic — exactly
// what ST-TCP eliminates.
type ReconnectClient struct {
	clientCore

	servers []serverAddr
	current int

	// Request is the total bytes to download.
	Request int64
	// StallTimeout is the application-level failure detector: no data for
	// this long declares the current server dead.
	StallTimeout time.Duration

	// Received counts verified bytes across all connection attempts.
	Received int64
	// Reconnects counts failovers performed.
	Reconnects int

	watchdog *sim.Event
	lastData time.Time
}

type serverAddr struct {
	addr ip.Addr
	port uint16
}

// NewReconnectClient builds a client that tries servers in order.
func NewReconnectClient(name string, stack *tcp.Stack, request int64, stallTimeout time.Duration, tracer *trace.Recorder) *ReconnectClient {
	return &ReconnectClient{
		clientCore:   newClientCore(name, stack, tracer),
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
		return fmt.Errorf("app: %s: no servers configured", cl.name)
	}
	cl.buf = make([]byte, 32<<10)
	cl.started = cl.sim.Now()
	cl.lastData = cl.started
	return cl.connect()
}

func (cl *ReconnectClient) connect() error {
	srv := cl.servers[cl.current%len(cl.servers)]
	c, err := cl.dial(srv.addr, srv.port)
	if err != nil {
		return err
	}
	remaining := cl.Request - cl.Received
	req := []byte(FormatResumeRequest(remaining, cl.Received))
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
	cl.tracer.Emit(trace.KindGeneric, cl.name, "reconnecting (#%d): %s", cl.Reconnects+1, why)
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
		cl.finish(fmt.Errorf("app: %s: giving up after %d reconnects", cl.name, cl.Reconnects))
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
	for {
		n, _ := c.Read(cl.buf) // closure is handled via OnClose / connClosed
		if n == 0 {
			return
		}
		cl.verify(cl.Received, cl.buf[:n], nil)
		cl.Received += int64(n)
		cl.lastData = cl.record(n, cl.Received)
		if cl.Received >= cl.Request {
			_ = c.Close()
			cl.finish(nil)
			return
		}
	}
}

func (cl *ReconnectClient) finish(err error) {
	cl.clientCore.finish(err, func() {
		if cl.watchdog != nil {
			cl.sim.Cancel(cl.watchdog)
			cl.watchdog = nil
		}
		if err == nil {
			cl.tracer.EmitValue(trace.KindAppDone, cl.name, cl.Received,
				"baseline client done: %d bytes, %d reconnect(s)", cl.Received, cl.Reconnects)
		} else {
			cl.tracer.Emit(trace.KindAppDone, cl.name, "baseline client failed: %v", err)
		}
	})
}

// Progress implements Client.
func (cl *ReconnectClient) Progress() string {
	return fmt.Sprintf("%d/%d bytes", cl.Received, cl.Request)
}
