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

// StreamClient is the paper's demo client: it connects to the service,
// requests a byte count, verifies every received byte against the
// deterministic pattern, and records a progress time series from which the
// experiments compute failover gaps. A seamless ST-TCP failover shows up
// as an uninterrupted (if briefly stalled) series; a broken connection
// shows up as an error.
type StreamClient struct {
	sim    *sim.Simulator
	stack  *tcp.Stack
	tracer *trace.Recorder
	name   string

	service ip.Addr
	port    uint16

	// Request is how many bytes to ask for.
	Request int64

	conn *tcp.Conn

	// Received counts verified payload bytes.
	Received int64
	// Samples is the progress series (one sample per delivery).
	Samples []ProgressSample
	// Done and Err record completion.
	Done bool
	Err  error
	// VerifyFailures counts pattern mismatches (must stay 0).
	VerifyFailures int64
	// OnDone fires once at completion or failure.
	OnDone func(err error)

	started   time.Time
	finished  time.Time
	readBuf   []byte
	telemetry *telemetry.ClientTrack
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
	return &StreamClient{
		sim:       cfg.Stack.Sim(),
		stack:     cfg.Stack,
		tracer:    cfg.Tracer,
		name:      cfg.Name,
		service:   cfg.Service,
		port:      cfg.Port,
		Request:   cfg.Request,
		telemetry: cfg.Telemetry,
	}
}

// Conn exposes the client's TCP connection (nil before Start).
func (cl *StreamClient) Conn() *tcp.Conn { return cl.conn }

// Start dials the service and sends the request.
func (cl *StreamClient) Start() error {
	c, err := cl.stack.Dial(ip.Addr{}, cl.service, cl.port)
	if err != nil {
		return fmt.Errorf("app: %s dial: %w", cl.name, err)
	}
	cl.conn = c
	cl.started = cl.sim.Now()
	req := []byte(FormatRequest(cl.Request))
	c.OnEstablished = func() {
		if _, err := c.Write(req); err != nil {
			cl.finish(err)
		}
	}
	c.OnReadable = func() { cl.readable() }
	c.OnClose = func(err error) {
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
	return nil
}

func (cl *StreamClient) readable() {
	if cl.Done || cl.conn == nil {
		return
	}
	if cl.readBuf == nil {
		cl.readBuf = make([]byte, 32<<10)
	}
	buf := cl.readBuf
	for {
		n, err := cl.conn.Read(buf)
		if n > 0 {
			cl.deliver(buf[:n])
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

// deliver verifies one delivery and records it, once: a sample on the
// progress series (and a telemetry observation, a no-op unless a window is
// set). The event is per-packet narrative, so it is built only when detail
// is on; otherwise the steady state allocates nothing
// (TestClientDeliveryDoesNotAllocate).
func (cl *StreamClient) deliver(p []byte) {
	if bad := VerifyPattern(cl.Received, p); bad >= 0 {
		cl.VerifyFailures++
		if cl.tracer != nil {
			cl.tracer.Emit(trace.KindGeneric, cl.name, "pattern mismatch at offset %d", cl.Received+int64(bad))
		}
	}
	cl.Received += int64(len(p))
	now := cl.sim.Now()
	prev := cl.started
	if len(cl.Samples) > 0 {
		prev = cl.Samples[len(cl.Samples)-1].Time
	}
	cl.telemetry.Deliver(len(p), now.Sub(prev))
	cl.Samples = append(cl.Samples, ProgressSample{Time: now, Bytes: cl.Received})
	if cl.tracer.Detail() {
		cl.tracer.EmitValue(trace.KindAppProgress, cl.name, cl.Received, "received %d bytes", cl.Received)
	}
}

func (cl *StreamClient) finish(err error) {
	if cl.Done {
		return
	}
	cl.Done = true
	cl.Err = err
	cl.finished = cl.sim.Now()
	if cl.tracer != nil {
		if err == nil {
			cl.tracer.EmitValue(trace.KindAppDone, cl.name, cl.Received, "received %d bytes in %v", cl.Received, cl.Elapsed())
		} else {
			cl.tracer.Emit(trace.KindAppDone, cl.name, "failed after %d bytes: %v", cl.Received, err)
		}
	}
	if cl.OnDone != nil {
		cl.OnDone(err)
	}
}

// Elapsed is the transfer duration (through completion, or until now).
func (cl *StreamClient) Elapsed() time.Duration {
	end := cl.finished
	if end.IsZero() {
		end = cl.sim.Now()
	}
	return end.Sub(cl.started)
}

// Outcome implements Client.
func (cl *StreamClient) Outcome() (bool, int64, error) { return cl.Done, cl.VerifyFailures, cl.Err }

// Progress implements Client.
func (cl *StreamClient) Progress() string { return fmt.Sprintf("%d/%d bytes", cl.Received, cl.Request) }

// MaxGap is the largest client-visible stall (see the package's MaxGap).
func (cl *StreamClient) MaxGap() (gap time.Duration, around time.Time) {
	return MaxGap(cl.started, cl.Samples)
}
