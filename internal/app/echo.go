package app

import (
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// EchoServer echoes every received byte back to the client. Because it
// continuously reads *and* writes, it is the workload on which the
// application-lag failure detector (§4.2.1) and the NIC-failure client-data
// criterion (§4.3) are exercised.
type EchoServer struct {
	replica[echoState]

	// buf is the one scratch every pump reads into, on the way to pending.
	buf []byte

	// BytesEchoed totals bytes written back.
	BytesEchoed int64
}

type echoState struct {
	pending  []byte // read but not yet written back: pending[flushed:]
	flushed  int
	deferred bool // a starved pump is already scheduled
}

// echoReadSize bounds one Read of either end of an echo connection.
const echoReadSize = 16 << 10

// NewEchoServer builds an echo server.
func NewEchoServer(name string, tracer *trace.Recorder) *EchoServer {
	return &EchoServer{replica: newReplica[echoState](name, tracer, "echo application", "no cleanup"), buf: make([]byte, echoReadSize)}
}

// Accept adopts an established connection.
func (s *EchoServer) Accept(c *tcp.Conn) {
	st := &echoState{}
	s.adopt(c, st)
	pump := func() { s.pump(c, st) }
	c.OnReadable = func() { s.run(&st.deferred, pump) }
	c.OnWritable = c.OnReadable
	c.OnReadable()
}

func (s *EchoServer) pump(c *tcp.Conn, st *echoState) {
	if s.crashed {
		return
	}
	for {
		// Flush pending echo bytes first to preserve order.
		for st.flushed < len(st.pending) {
			n, err := c.Write(st.pending[st.flushed:])
			if err != nil {
				return
			}
			if n == 0 {
				return // send buffer full; OnWritable resumes
			}
			s.BytesEchoed += int64(n)
			st.flushed += n
		}
		// Drained: back to the base of the array, for the append to reuse.
		st.pending, st.flushed = st.pending[:0], 0
		n, err := c.Read(s.buf)
		if n == 0 {
			if err != nil && c.PeerFINSeen() {
				_ = c.Close() // echo everything, then mirror the close
			}
			return
		}
		st.pending = append(st.pending, s.buf[:n]...)
	}
}

// EchoClient drives an echo server in ping-pong rounds: it sends a message
// of MsgSize pattern bytes, waits for the full echo, verifies it, and
// repeats — keeping a verifiable, client-driven byte flow in both
// directions.
type EchoClient struct {
	// The scratch serves both directions, one at a time (an echo is
	// verified before the next message is generated). With one message
	// outstanding there are never more than MsgSize bytes to read or write:
	// that is its size. Telemetry gets one observation per completed round
	// (the inter-round gap is the client-visible response latency).
	clientCore

	service ip.Addr
	port    uint16

	// Rounds is how many ping-pong exchanges to run; MsgSize is the
	// bytes per message.
	Rounds  int
	MsgSize int
	// Gap, when non-zero, inserts a pause between rounds (driven by a
	// timer at the *client*, so server determinism is unaffected).
	Gap time.Duration

	// RoundsDone counts completed verified exchanges.
	RoundsDone int

	echoed   int64 // total bytes verified
	sendOff  int64 // pattern offset for sending
	writeRem int   // bytes of the current message still to write
}

// NewEchoClient builds an echo client.
func NewEchoClient(name string, stack *tcp.Stack, service ip.Addr, port uint16, rounds, msgSize int, tracer *trace.Recorder) *EchoClient {
	return &EchoClient{
		clientCore: newClientCore(name, stack, tracer),
		service:    service,
		port:       port,
		Rounds:     rounds,
		MsgSize:    msgSize,
	}
}

// Start dials and begins the first round.
func (cl *EchoClient) Start() error {
	c, err := cl.dial(cl.service, cl.port)
	if err != nil {
		return err
	}
	cl.buf = make([]byte, min(cl.MsgSize, echoReadSize))
	cl.started = cl.sim.Now()
	c.OnEstablished = func() { cl.sendRound() }
	c.OnWritable = func() { cl.continueSend() }
	c.OnReadable = func() { cl.readable() }
	c.OnClose = func(err error) {
		if cl.Done {
			return
		}
		if err == nil {
			err = fmt.Errorf("app: %s: closed after %d/%d rounds", cl.name, cl.RoundsDone, cl.Rounds)
		}
		cl.finish(err)
	}
	return nil
}

func (cl *EchoClient) sendRound() {
	if cl.Done || cl.RoundsDone >= cl.Rounds {
		return
	}
	cl.writeRem = cl.MsgSize
	cl.continueSend()
}

func (cl *EchoClient) continueSend() {
	if cl.Done || cl.writeRem == 0 || cl.conn == nil {
		return
	}
	for cl.writeRem > 0 {
		chunk := cl.buf[:min(4096, cl.writeRem, len(cl.buf))]
		FillPattern(cl.sendOff, chunk)
		written, err := cl.conn.Write(chunk)
		if err != nil {
			cl.finish(err)
			return
		}
		if written == 0 {
			return
		}
		cl.sendOff += int64(written)
		cl.writeRem -= written
	}
}

func (cl *EchoClient) readable() {
	if cl.Done || cl.conn == nil {
		return
	}
	for {
		n, _ := cl.conn.Read(cl.buf)
		if n == 0 {
			return
		}
		cl.verify(cl.echoed, cl.buf[:n], nil)
		cl.echoed += int64(n)
		if cl.echoed >= int64(cl.RoundsDone+1)*int64(cl.MsgSize) {
			cl.RoundsDone++
			cl.record(cl.MsgSize, cl.echoed)
			if cl.tracer.Detail() {
				cl.tracer.EmitValue(trace.KindAppProgress, cl.name, cl.echoed, "round %d echoed (%d bytes)", cl.RoundsDone, cl.echoed)
			}
			if cl.RoundsDone >= cl.Rounds {
				_ = cl.conn.Close()
				cl.finish(nil)
				return
			}
			if cl.Gap > 0 {
				cl.sim.Schedule(cl.Gap, cl.sendRound)
			} else {
				cl.sendRound()
			}
		}
	}
}

func (cl *EchoClient) finish(err error) {
	cl.clientCore.finish(err, func() {
		if err == nil {
			cl.tracer.EmitValue(trace.KindAppDone, cl.name, int64(cl.RoundsDone), "echo client done: %d rounds", cl.RoundsDone)
		} else {
			cl.tracer.Emit(trace.KindAppDone, cl.name, "echo client failed after %d rounds: %v", cl.RoundsDone, err)
		}
	})
}

// Progress implements Client.
func (cl *EchoClient) Progress() string { return fmt.Sprintf("%d/%d rounds", cl.RoundsDone, cl.Rounds) }
