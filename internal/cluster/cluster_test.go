package cluster

import (
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newHostPair(t *testing.T) (*sim.Simulator, *Host, *Host, *trace.Recorder) {
	t.Helper()
	s := sim.New(1)
	tr := trace.NewRecorder(s.Now)
	sw := netem.NewSwitch(s, "sw", time.Microsecond)
	a := New(s, HostConfig{Name: "a", EthNum: 1, Addr: ip.MakeAddr(10, 0, 0, 1), Tracer: tr})
	b := New(s, HostConfig{Name: "b", EthNum: 2, Addr: ip.MakeAddr(10, 0, 0, 2), Tracer: tr})
	a.ConnectToSwitch(sw, netem.DefaultLANConfig())
	b.ConnectToSwitch(sw, netem.DefaultLANConfig())
	return s, a, b, tr
}

func TestHostsCommunicate(t *testing.T) {
	s, a, b, _ := newHostPair(t)
	got := false
	if err := b.Netstack().UDPListen(9, func(ip.Addr, uint16, []byte) { got = true }); err != nil {
		t.Fatalf("listen: %v", err)
	}
	_ = a.Netstack().UDPSend(9, b.Netstack().Addr(), 9, []byte("hi"))
	_ = s.Run(time.Second)
	if !got {
		t.Fatal("datagram not delivered between hosts")
	}
}

func TestCrashHWSilencesEverything(t *testing.T) {
	s, a, b, tr := newHostPair(t)
	sp, sb := serial.NewPair(s, "a/tty", "b/tty", 0)
	a.AttachSerial(sp)
	b.AttachSerial(sb)

	hooks := 0
	a.OnCrash(func() { hooks++ })
	a.OnCrash(func() { hooks++ })

	a.CrashHW()
	if !a.Crashed() {
		t.Fatal("crash state not recorded")
	}
	if hooks != 2 {
		t.Fatalf("crash hooks ran %d times, want 2", hooks)
	}
	if !a.NIC().Failed() || !a.Netstack().IsDown() || !a.Serial().Down() {
		t.Fatal("crash did not silence all interfaces")
	}
	if !tr.Has(trace.KindHostCrash) {
		t.Fatal("crash not traced")
	}
	// Crash is idempotent.
	a.CrashHW()
	if hooks != 2 {
		t.Fatal("double crash re-ran hooks")
	}
	// And the host is unreachable.
	got := false
	_ = b.Netstack().UDPListen(9, func(ip.Addr, uint16, []byte) { got = true })
	_ = a.Netstack().UDPSend(9, b.Netstack().Addr(), 9, []byte("x"))
	_ = s.Run(time.Second)
	if got {
		t.Fatal("crashed host transmitted")
	}
}

func TestPowerControllerTraces(t *testing.T) {
	_, a, _, tr := newHostPair(t)
	p := NewPowerController(a)
	if p.Target() != a {
		t.Fatal("target wrong")
	}
	p.Off()
	if !a.Crashed() {
		t.Fatal("power off did not crash the host")
	}
	if !tr.Has(trace.KindPowerOff) {
		t.Fatal("power-off not traced")
	}
	if tr.Has(trace.KindHostCrash) {
		t.Fatal("power-off mis-traced as plain crash")
	}
}

func TestFailNICKeepsHostAlive(t *testing.T) {
	s, a, b, tr := newHostPair(t)
	sp, sb := serial.NewPair(s, "a/tty", "b/tty", 0)
	a.AttachSerial(sp)
	b.AttachSerial(sb)
	a.FailNIC()
	if a.Crashed() {
		t.Fatal("NIC failure crashed the host")
	}
	if !a.NIC().Failed() {
		t.Fatal("NIC not failed")
	}
	if a.Netstack().IsDown() {
		t.Fatal("NIC failure took the whole stack down")
	}
	// The serial port still works.
	got := false
	sb.SetHandler(func([]byte) { got = true })
	if err := sp.Send([]byte("still here")); err != nil {
		t.Fatalf("serial send: %v", err)
	}
	_ = s.Run(time.Second)
	if !got {
		t.Fatal("serial dead after NIC failure")
	}
	if !tr.Has(trace.KindNICFail) {
		t.Fatal("NIC failure not traced")
	}
}
