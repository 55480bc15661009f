package cluster

import (
	"strings"
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
	if !a.NIC().Failed() || !a.Serial().Down() {
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
	_ = a.Netstack().UDPListen(9, func(ip.Addr, uint16, []byte) { got = true })
	_ = b.Netstack().UDPSend(9, a.Netstack().Addr(), 9, []byte("x"))
	_ = s.Run(time.Second)
	if got {
		t.Fatal("crashed host received")
	}
}

// TestCrashStopsTheHostsClocks crashes a host whose connection has data
// in flight: its retransmission timer is armed, and nothing the host's
// software armed may fire afterwards. The reboot brings new, running clocks
// at the rates set before the crash.
func TestCrashStopsTheHostsClocks(t *testing.T) {
	s, a, b, tr := newHostPair(t)
	if _, err := b.TCP().Listen(b.Netstack().Addr(), 80); err != nil {
		t.Fatal(err)
	}
	c, err := a.TCP().Dial(a.Netstack().Addr(), b.Netstack().Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Run(100 * time.Millisecond)
	if _, err := c.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	a.SetTimerScale(1.5)
	a.SetCPUScale(3)
	timer, cpu := a.Clock(), a.CPU()

	a.CrashHW()
	mark, sent := tr.Len(), a.TCP().Emitted
	_ = s.Run(10 * time.Minute)
	for _, e := range tr.Events()[mark:] {
		if strings.HasPrefix(e.Component, "a/") {
			t.Fatalf("crashed host traced %v %s at %v: %s", e.Kind, e.Component, e.Time.Sub(sim.Epoch), e.Message)
		}
	}
	if a.TCP().Emitted != sent {
		t.Fatalf("crashed host sent %d segments", a.TCP().Emitted-sent)
	}
	a.Reboot()
	if a.Clock() == timer || a.CPU() == cpu {
		t.Fatal("reboot kept the stopped clocks")
	}
	if a.Clock().Rate() != 1.5 || a.CPU().Rate() != 3 {
		t.Fatalf("rebooted clocks run at %v / %v, want the rates set before the crash (1.5 / 3)", a.Clock().Rate(), a.CPU().Rate())
	}
	fired := 0
	a.Clock().AfterFunc(time.Second, func() { fired++ })
	a.CPU().AfterFunc(time.Second, func() { fired++ })
	_ = s.Run(2 * time.Second)
	if fired != 2 {
		t.Fatalf("%d of the rebooted host's two timers fired", fired)
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
