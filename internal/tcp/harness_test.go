package tcp

import (
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/trace"
)

var (
	addrA = ip.MakeAddr(10, 0, 0, 1)
	addrB = ip.MakeAddr(10, 0, 0, 2)
)

// pairHarness is two hosts joined by one direct link.
type pairHarness struct {
	sim    *sim.Simulator
	link   *netem.Link
	nicA   *netem.NIC
	nicB   *netem.NIC
	stackA *Stack
	stackB *Stack
	tracer *trace.Recorder
}

func newPair(t *testing.T, seed int64, linkCfg netem.LinkConfig, opts Options) *pairHarness {
	t.Helper()
	s := sim.New(seed)
	tracer := trace.NewRecorder(s.Now)
	link := netem.NewLink(s, linkCfg)
	nicA := netem.NewNIC(s, "a/eth0", eth.MakeAddr(1))
	nicB := netem.NewNIC(s, "b/eth0", eth.MakeAddr(2))
	link.Attach(nicA, nicB)
	nicA.AttachToLink(link, true)
	nicB.AttachToLink(link, false)
	clockA, clockB := sim.NewClock(s), sim.NewClock(s)
	nsA := netstack.New(clockA, "a", nicA, addrA)
	nsB := netstack.New(clockB, "b", nicB, addrB)
	return &pairHarness{
		sim:    s,
		link:   link,
		nicA:   nicA,
		nicB:   nicB,
		stackA: NewStack(clockA, nsA, "a", opts, tracer, nil),
		stackB: NewStack(clockB, nsB, "b", opts, tracer, nil),
		tracer: tracer,
	}
}

// cut cuts (or restores) the cable in both directions.
func (h *pairHarness) cut(cut bool) {
	h.link.SetCutFromA(cut)
	h.link.SetCutFromB(cut)
}

// sink accumulates everything read from a connection.
type sink struct {
	data   []byte
	eof    bool
	closed bool
	err    error
}

func attachSink(c *Conn) *sink {
	sk := &sink{}
	c.OnReadable = func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				sk.data = append(sk.data, buf[:n]...)
				continue
			}
			if err != nil {
				sk.eof = true
			}
			return
		}
	}
	c.OnClose = func(err error) {
		sk.closed = true
		sk.err = err
	}
	return sk
}

// connectPair establishes a connection from A to B and returns both ends.
func connectPair(t *testing.T, h *pairHarness, port uint16) (client, server *Conn) {
	t.Helper()
	l, err := h.stackB.Listen(addrB, port)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l.OnEstablished = func(c *Conn) { server = c }
	client, err = h.stackA.Dial(ip.Addr{}, addrB, port)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// Generous virtual-time budget: lossy-link tests may need several
	// SYN retransmissions (initial RTO 1 s, doubling).
	if err := h.sim.Run(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if client.State() != StateEstablished {
		t.Fatalf("client state %v after handshake", client.State())
	}
	if server == nil || server.State() != StateEstablished {
		t.Fatalf("server not established")
	}
	return client, server
}

// writeAll pushes all of data through c, retrying via OnWritable.
func writeAll(c *Conn, data []byte) {
	var pump func()
	pump = func() {
		for len(data) > 0 {
			n, err := c.Write(data)
			if err != nil || n == 0 {
				return
			}
			data = data[n:]
		}
	}
	c.OnWritable = pump
	pump()
}
