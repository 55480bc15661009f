package app

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ProgressSample is one observation of the client's download progress —
// the data behind the demo GUI's pie chart.
type ProgressSample struct {
	Time  time.Time
	Bytes int64
}

// Client is the client half of Server: what the harnesses (experiment,
// chaos, scenario) read from a workload connection, whichever of
// StreamClient and EchoClient drives it.
type Client interface {
	// Outcome reports whether the workload has finished, how many pattern
	// mismatches it saw (must stay 0), and the error it ended with.
	Outcome() (done bool, verifyFailures int64, err error)
	// MaxGap is the largest stall in the progress series and its midpoint.
	MaxGap() (gap time.Duration, around time.Time)
	// Progress renders how far the workload got: "n/m bytes" or "n/m rounds".
	Progress() string
	// Conn exposes the client's TCP connection.
	Conn() *tcp.Conn
	// Name is the client's trace name.
	Name() string
}

// Completed is the client-transparency claim for one client: it finished,
// without an error, with every byte verified.
func Completed(c Client) bool {
	done, bad, err := c.Outcome()
	return done && err == nil && bad == 0
}

// MaxGap returns the largest interval between consecutive progress samples
// (including from start to the first sample; a zero start counts from the
// first sample): the client-visible stall a failover causes. around
// reports the midpoint of that gap.
func MaxGap(start time.Time, samples []ProgressSample) (gap time.Duration, around time.Time) {
	if start.IsZero() && len(samples) > 0 {
		start = samples[0].Time
	}
	for _, s := range samples {
		if d := s.Time.Sub(start); d > gap {
			gap = d
			around = start.Add(d / 2)
		}
		start = s.Time
	}
	return gap, around
}

// Bracket returns the deliveries around time t: the last one at or before
// t and the first one after it, each zero when the series has none. The
// stall a takeover at t caused the client is after − before.
func Bracket(samples []ProgressSample, t time.Time) (before, after time.Time) {
	i := sort.Search(len(samples), func(i int) bool { return samples[i].Time.After(t) })
	if i > 0 {
		before = samples[i-1].Time
	}
	if i < len(samples) {
		after = samples[i].Time
	}
	return before, after
}

// clientCore is what every workload client keeps, whatever it asks the
// service for: where it runs, the connection it drives, the progress series
// the experiments read stalls from, and how it ended.
type clientCore struct {
	sim    *sim.Simulator
	stack  *tcp.Stack
	tracer *trace.Recorder
	name   string
	conn   *tcp.Conn
	// buf is the one scratch the echo and reconnecting clients Read into
	// (the stream client verifies its receive buffer in place); finish
	// drops it, as every reader returns early once Done.
	buf []byte

	// Telemetry, when non-nil, receives per-delivery progress and
	// client-visible response latency (the gap between consecutive
	// deliveries — a failover stall shows up as one huge observation).
	Telemetry *telemetry.ClientTrack
	// Samples is the progress series: one sample per delivery (per
	// completed round for an echo client).
	Samples []ProgressSample
	// Done and Err record completion.
	Done bool
	Err  error
	// VerifyFailures counts pattern mismatches (must stay 0).
	VerifyFailures int64
	// OnDone fires once at completion or failure.
	OnDone func(err error)

	started  time.Time
	finished time.Time
}

func newClientCore(name string, stack *tcp.Stack, tracer *trace.Recorder) clientCore {
	return clientCore{sim: stack.Sim(), stack: stack, tracer: tracer, name: name}
}

// Conn exposes the client's TCP connection (nil before Start).
func (c *clientCore) Conn() *tcp.Conn { return c.conn }

// Name implements Client.
func (c *clientCore) Name() string { return c.name }

// dial connects to addr:port and makes that the client's connection.
func (c *clientCore) dial(addr ip.Addr, port uint16) (*tcp.Conn, error) {
	conn, err := c.stack.Dial(ip.Addr{}, addr, port)
	if err != nil {
		return nil, fmt.Errorf("app: %s dial %v: %w", c.name, addr, err)
	}
	c.conn = conn
	return conn, nil
}

// Outcome implements Client.
func (c *clientCore) Outcome() (bool, int64, error) { return c.Done, c.VerifyFailures, c.Err }

// MaxGap is the largest client-visible stall (see the package's MaxGap).
func (c *clientCore) MaxGap() (gap time.Duration, around time.Time) {
	return MaxGap(c.started, c.Samples)
}

// Elapsed is the workload's duration (through completion, or until now).
func (c *clientCore) Elapsed() time.Duration {
	end := c.finished
	if end.IsZero() {
		end = c.sim.Now()
	}
	return end.Sub(c.started)
}

// verify checks one delivery, first then second, against the pattern from
// stream offset off; a delivery with a mismatch counts once.
func (c *clientCore) verify(off int64, first, second []byte) {
	bad := VerifyPattern(off, first)
	if bad < 0 {
		if bad = VerifyPattern(off+int64(len(first)), second); bad >= 0 {
			bad += len(first)
		}
	}
	if bad >= 0 {
		c.VerifyFailures++
		c.tracer.Emit(trace.KindGeneric, c.name, "pattern mismatch at offset %d", off+int64(bad))
	}
}

// record notes, once, a delivery of n bytes that brought the verified total
// to total: a sample on the progress series and a telemetry observation (a
// no-op unless a window is set). It returns the sample's instant.
func (c *clientCore) record(n int, total int64) time.Time {
	now := c.sim.Now()
	prev := c.started
	if len(c.Samples) > 0 {
		prev = c.Samples[len(c.Samples)-1].Time
	}
	c.Telemetry.Deliver(n, now.Sub(prev))
	c.Samples = append(c.Samples, ProgressSample{Time: now, Bytes: total})
	return now
}

// finish ends the workload, once: emitDone writes the client's own
// app-done event, then OnDone hears of it.
func (c *clientCore) finish(err error, emitDone func()) {
	if c.Done {
		return
	}
	c.Done, c.Err, c.finished = true, err, c.sim.Now()
	c.buf = nil
	c.Telemetry.Finish()
	emitDone()
	if c.OnDone != nil {
		c.OnDone(err)
	}
}

// StreamClient is the paper's demo client: it connects to the service,
// requests a byte count, verifies every received byte against the
// deterministic pattern, and records a progress time series from which the
// experiments compute failover gaps. A seamless ST-TCP failover shows up
// as an uninterrupted (if briefly stalled) series; a broken connection
// shows up as an error.
type StreamClient struct {
	clientCore

	service ip.Addr
	port    uint16

	// Request is how many bytes to ask for.
	Request int64
	// Received counts verified payload bytes.
	Received int64
}

// ClientConfig configures a StreamClient. Name, Stack, Service, Port,
// and Request are required; Tracer may be nil.
type ClientConfig struct {
	// Name is the client's trace name ("client/app").
	Name string
	// Stack is the host TCP stack the client dials from.
	Stack *tcp.Stack
	// Service and Port address the ST-TCP service.
	Service ip.Addr
	Port    uint16
	// Request is how many bytes to ask for.
	Request int64
	// Tracer receives progress and completion events; nil disables them.
	Tracer *trace.Recorder
	// Telemetry, when non-nil, receives per-delivery progress and
	// client-visible response latency (the gap between consecutive
	// deliveries — a failover stall shows up as one huge observation).
	Telemetry *telemetry.ClientTrack
}

// NewStreamClient builds a client on the given host TCP stack.
func NewStreamClient(cfg ClientConfig) *StreamClient {
	cl := &StreamClient{
		clientCore: newClientCore(cfg.Name, cfg.Stack, cfg.Tracer),
		service:    cfg.Service,
		port:       cfg.Port,
		Request:    cfg.Request,
	}
	cl.Telemetry = cfg.Telemetry
	return cl
}

// Start dials the service and sends the request.
func (cl *StreamClient) Start() error {
	c, err := cl.dial(cl.service, cl.port)
	if err != nil {
		return err
	}
	cl.started = cl.sim.Now()
	// One sample per delivery: a full segment, or one of the short ones
	// the sender slips in as its window grows (3 to 9 in a 32 KiB
	// download, one per 40 full segments in 12 MiB, at seed 42).
	segs := (cl.Request + tcp.DefaultMSS - 1) / tcp.DefaultMSS
	cl.Samples = make([]ProgressSample, 0, segs+segs/32+10)
	c.OnEstablished = cl.established
	c.OnReadable = cl.readable
	c.OnClose = cl.closed
	return nil
}

// established sends the request line.
func (cl *StreamClient) established() {
	var line [32]byte
	if _, err := cl.conn.Write(AppendRequest(line[:0], cl.Request)); err != nil {
		cl.finish(err)
	}
}

func (cl *StreamClient) closed(err error) {
	if cl.Done {
		return
	}
	if err == nil && cl.Received >= cl.Request {
		cl.finish(nil)
		return
	}
	if err == nil {
		err = fmt.Errorf("app: %s: connection closed after %d/%d bytes", cl.name, cl.Received, cl.Request)
	}
	cl.finish(err)
}

func (cl *StreamClient) readable() {
	if cl.Done || cl.conn == nil {
		return
	}
	for {
		first, second, err := cl.conn.Peek(32 << 10)
		if n := len(first) + len(second); n > 0 {
			// Verified before Discard ends the spans, recorded after it,
			// where a Read's delivery was.
			cl.verify(cl.Received, first, second)
			cl.conn.Discard(n)
			cl.deliver(n)
			if cl.Received >= cl.Request {
				_ = cl.conn.Close()
				cl.finish(nil)
				return
			}
			continue
		}
		if err != nil {
			// End of stream: success only if the full request
			// arrived first.
			if cl.Received >= cl.Request {
				cl.finish(nil)
			} else {
				cl.finish(fmt.Errorf("app: %s: stream ended after %d/%d bytes: %w",
					cl.name, cl.Received, cl.Request, err))
			}
		}
		return
	}
}

// deliver records one delivery of n verified bytes. The event is
// per-packet narrative, so it is built only when detail is on; otherwise
// the steady state allocates nothing (TestClientDeliveryDoesNotAllocate).
func (cl *StreamClient) deliver(n int) {
	cl.Received += int64(n)
	cl.record(n, cl.Received)
	if cl.tracer.Detail() {
		cl.tracer.EmitValue(trace.KindAppProgress, cl.name, cl.Received, "received %d bytes", cl.Received)
	}
}

func (cl *StreamClient) finish(err error) {
	cl.clientCore.finish(err, func() {
		if err == nil {
			cl.tracer.EmitValue(trace.KindAppDone, cl.name, cl.Received, "received %d bytes in %v", cl.Received, cl.Elapsed())
		} else {
			cl.tracer.Emit(trace.KindAppDone, cl.name, "failed after %d bytes: %v", cl.Received, err)
		}
	})
}

// Progress implements Client.
func (cl *StreamClient) Progress() string { return fmt.Sprintf("%d/%d bytes", cl.Received, cl.Request) }
