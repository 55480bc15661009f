package netstack_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/tcp"
)

var (
	hostA = ip.MakeAddr(10, 0, 0, 1)
	hostB = ip.MakeAddr(10, 0, 0, 2)
)

// arrival is one frame as it reached a NIC: its bytes and its verdict.
type arrival struct {
	frame  []byte
	intact bool
}

// tap is b's NIC seen from its link: it keeps a copy of each frame, then
// hands it to the NIC.
type tap struct {
	*netem.NIC
	got *[]arrival
}

func (t tap) DeliverFrame(buf []byte, intact bool) {
	*t.got = append(*t.got, arrival{bytes.Clone(buf), intact})
	t.NIC.DeliverFrame(buf, intact)
}

// sealLAN is a switch with hosts a and b on it, each a NIC, a netstack and
// a TCP stack, and a record of every frame that reached b.
type sealLAN struct {
	sim      *sim.Simulator
	nsA, nsB *netstack.Stack
	a, b     *tcp.Stack
	atB      []arrival
}

func newSealLAN() *sealLAN {
	s := sim.New(1)
	sw := netem.NewSwitch(s, "sw", time.Microsecond)
	l := &sealLAN{sim: s}
	nicA := netem.NewNIC(s, "a/eth0", eth.MakeAddr(1))
	nicB := netem.NewNIC(s, "b/eth0", eth.MakeAddr(2))
	netem.Connect(s, sw, nicA, netem.DefaultLANConfig())
	linkB, _ := netem.Connect(s, sw, tap{nicB, &l.atB}, netem.DefaultLANConfig())
	nicB.AttachToLink(linkB, true)
	clockA, clockB := sim.NewClock(s), sim.NewClock(s)
	l.nsA = netstack.New(clockA, "a", nicA, hostA)
	l.nsB = netstack.New(clockB, "b", nicB, hostB)
	l.nsA.ARP().AddStatic(hostB, nicB.Addr())
	l.nsB.ARP().AddStatic(hostA, nicA.Addr())
	l.a = tcp.NewStack(clockA, l.nsA, "a", tcp.Options{}, nil, nil)
	l.b = tcp.NewStack(clockB, l.nsB, "b", tcp.Options{}, nil, nil)
	return l
}

// transfer sends msg from a to b over a fresh connection and returns what
// b read.
func (l *sealLAN) transfer(t *testing.T, msg []byte) []byte {
	t.Helper()
	ln, err := l.b.Listen(hostB, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var got []byte
	ln.OnEstablished = func(c *tcp.Conn) {
		c.OnReadable = func() {
			buf := make([]byte, 4096)
			for n, _ := c.Read(buf); n > 0; n, _ = c.Read(buf) {
				got = append(got, buf[:n]...)
			}
		}
	}
	c, err := l.a.Dial(hostA, hostB, 80)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.OnEstablished = func() { _, _ = c.Write(msg) }
	if err := l.sim.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

// sums reads the IP header checksum and the TCP checksum of a TCP frame.
func sums(t *testing.T, frame []byte) (hdr, seg uint16) {
	t.Helper()
	f, err := eth.Parse(frame)
	if err != nil || f.Type != eth.TypeIPv4 {
		t.Fatalf("not an IPv4 frame (%v): % x", err, frame)
	}
	p, err := ip.Parse(f.Payload)
	if err != nil || p.Proto != ip.ProtoTCP {
		t.Fatalf("not a TCP packet (%v): % x", err, f.Payload)
	}
	return binary.BigEndian.Uint16(f.Payload[10:]), binary.BigEndian.Uint16(p.Payload[16:])
}

// TestIntactSegmentsTravelUnsealed: a TCP segment leaves its stack with
// its IP and TCP checksums unwritten, reaches the receiving NIC that way
// with an intact verdict, and the receiving stack takes it: the stream
// arrives whole. The race build seals every frame, so there each frame
// carries its sums instead.
func TestIntactSegmentsTravelUnsealed(t *testing.T) {
	l := newSealLAN()
	msg := bytes.Repeat([]byte("unsealed "), 400)
	if got := l.transfer(t, msg); !bytes.Equal(got, msg) {
		t.Fatalf("b read %d bytes, want the %d sent", len(got), len(msg))
	}
	if len(l.atB) == 0 {
		t.Fatal("no frame reached b")
	}
	for i, a := range l.atB {
		hdr, seg := sums(t, a.frame)
		if !a.intact {
			t.Fatalf("frame %d reached b without a verdict", i)
		}
		if sealed := hdr != 0 || seg != 0; sealed != netem.RecheckVerdicts {
			t.Fatalf("frame %d: IP sum %#04x, TCP sum %#04x; want them written only in the race build", i, hdr, seg)
		}
	}
}
