package tcp_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// TestRawRTOTimerBreaksDeadHostSilence seeds the defect the host clock
// removes: Demo 1 with the retransmission timer on the raw simulator, so
// the crashed primary keeps retransmitting. The invariant registry must
// convict the first zombie retransmission; on the host clock, Demo 1
// passes.
func TestRawRTOTimerBreaksDeadHostSilence(t *testing.T) {
	demo1, _ := experiment.DemoByName("demo1")
	run := func() error {
		_, _, err := demo1.Run(experiment.Params{Seed: 42})
		return err
	}
	if err := run(); err != nil {
		t.Fatalf("demo1 on the host clock: %v", err)
	}
	undo := tcp.SeedRawRTOTimer()
	defer undo()
	err := run()
	if err == nil {
		t.Fatal("demo1 with a raw-simulator RTO timer passed; dead-host-silence should fail it")
	}
	for _, want := range []string{"dead-host-silence: primary ", "from primary/tcp at 699."} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}

// TestCrashReleasesTheStacksBuffers crashes a host whose connections hold
// bytes in both windows, some unacknowledged: afterwards every connection
// of the dead stack holds no storage, and a Slice of bytes it held reports
// ErrReleased. The rebooted host serves again on its new stack.
func TestCrashReleasesTheStacksBuffers(t *testing.T) {
	s := sim.New(1)
	sw := netem.NewSwitch(s, "sw", time.Microsecond)
	client := cluster.New(s, cluster.HostConfig{Name: "client", EthNum: 1, Addr: ip.MakeAddr(10, 0, 0, 1)})
	server := cluster.New(s, cluster.HostConfig{Name: "server", EthNum: 2, Addr: ip.MakeAddr(10, 0, 0, 2)})
	netem.Connect(s, sw, client.NIC(), netem.DefaultLANConfig())
	netem.Connect(s, sw, server.NIC(), netem.DefaultLANConfig())
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i*31 + i>>9)
	}
	// serve answers every connection with payload and reads nothing.
	var conns []*tcp.Conn
	serve := func() {
		l, err := server.TCP().Listen(server.Netstack().Addr(), 80)
		if err != nil {
			t.Fatal(err)
		}
		l.OnEstablished = func(c *tcp.Conn) {
			conns = append(conns, c)
			_, _ = c.Write(payload)
		}
	}
	dial := func() *tcp.Conn {
		c, err := client.TCP().Dial(client.Netstack().Addr(), server.Netstack().Addr(), 80)
		if err != nil {
			t.Fatal(err)
		}
		c.OnEstablished = func() { _, _ = c.Write(payload[:4096]) }
		return c
	}

	serve()
	for i := 0; i < 3; i++ {
		dial()
	}
	_ = s.Run(2 * time.Millisecond)
	held := make([]int64, len(conns))
	for i, c := range conns {
		sb := c.SendWindow()
		if c.Storage() == 0 || sb.Len() == 0 || c.Buffered() == 0 {
			t.Fatalf("before the crash %v holds %d bytes of storage, %d unacknowledged, %d unread; the case needs all three", c.ID(), c.Storage(), sb.Len(), c.Buffered())
		}
		held[i] = sb.Base()
	}
	if len(conns) != 3 {
		t.Fatalf("server has %d connections, want 3", len(conns))
	}

	server.CrashHW()
	for i, c := range conns {
		if n := c.Storage(); n != 0 {
			t.Errorf("%v holds %d bytes of storage after the crash", c.ID(), n)
		}
		if _, err := c.SendWindow().Slice(held[i], 1); !errors.Is(err, tcp.ErrReleased) {
			t.Errorf("%v: Slice of a held byte after the crash = %v, want ErrReleased", c.ID(), err)
		}
	}

	server.Reboot()
	serve()
	c := dial()
	var got []byte
	buf := make([]byte, 4096)
	c.OnReadable = func() {
		for n, _ := c.Read(buf); n > 0; n, _ = c.Read(buf) {
			got = append(got, buf[:n]...)
		}
	}
	_ = s.Run(time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("after the reboot the client read %d of %d bytes, or not the ones served", len(got), len(payload))
	}
}
