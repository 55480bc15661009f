package netem

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/sim"
)

// twoNICs wires a↔b through a switch and returns received-frame sinks.
func twoNICs(s *sim.Simulator, cfg LinkConfig) (a, b *NIC, rxA, rxB *[]eth.Frame, sw *Switch) {
	sw = NewSwitch(s, "sw", time.Microsecond)
	a = NewNIC(s, "a", eth.MakeAddr(1))
	b = NewNIC(s, "b", eth.MakeAddr(2))
	Connect(s, sw, a, cfg)
	Connect(s, sw, b, cfg)
	var fa, fb []eth.Frame
	a.SetHandler(keep(&fa))
	b.SetHandler(keep(&fb))
	return a, b, &fa, &fb, sw
}

// keep returns a handler that retains every frame, and so — the payload
// being the link's, reissued once the handler returns — clones it.
func keep(rx *[]eth.Frame) func(eth.Frame) {
	return func(f eth.Frame) {
		f.Payload = bytes.Clone(f.Payload)
		*rx = append(*rx, f)
	}
}

func send(t *testing.T, n *NIC, dst eth.Addr, payload string) {
	t.Helper()
	if err := n.Send(eth.Frame{Dst: dst, Type: eth.TypeIPv4, Payload: []byte(payload)}); err != nil {
		t.Fatalf("send: %v", err)
	}
}

func TestUnicastDelivery(t *testing.T) {
	s := sim.New(1)
	a, b, rxA, rxB, _ := twoNICs(s, DefaultLANConfig())
	_ = a
	send(t, a, b.Addr(), "hello")
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(*rxB) != 1 || string((*rxB)[0].Payload) != "hello" {
		t.Fatalf("b received %v", *rxB)
	}
	if len(*rxA) != 0 {
		t.Fatalf("a received its own frame: %v", *rxA)
	}
}

func TestSwitchLearnsAndStopsFlooding(t *testing.T) {
	s := sim.New(1)
	a, b, _, rxB, sw := twoNICs(s, DefaultLANConfig())
	// First frame to an unknown destination floods.
	send(t, a, b.Addr(), "one")
	_ = s.Run(time.Second)
	firstFloods := sw.Flooded
	if firstFloods == 0 {
		t.Fatal("unknown unicast did not flood")
	}
	// b replies, teaching the switch b's port; now a→b is directed.
	send(t, b, a.Addr(), "reply")
	_ = s.Run(time.Second)
	send(t, a, b.Addr(), "two")
	_ = s.Run(time.Second)
	if sw.Flooded != firstFloods {
		t.Fatalf("switch flooded again after learning: %d → %d", firstFloods, sw.Flooded)
	}
	if len(*rxB) != 2 {
		t.Fatalf("b received %d frames, want 2", len(*rxB))
	}
}

// TestMulticastGroupDelivery checks the testbed's core trick: a frame sent
// to the service group reaches every member port (both servers), and
// non-members do not see it.
func TestMulticastGroupDelivery(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", time.Microsecond)
	group := eth.MakeMulticastAddr(0x100)
	var nics []*NIC
	var rx [3][]eth.Frame
	for i := 0; i < 3; i++ {
		i := i
		n := NewNIC(s, "n", eth.MakeAddr(uint32(i+1)))
		_, port := Connect(s, sw, n, DefaultLANConfig())
		n.SetHandler(keep(&rx[i]))
		nics = append(nics, n)
		if i > 0 { // NICs 1 and 2 are the servers
			n.JoinGroup(group)
			sw.JoinGroup(group, port)
		}
	}
	send(t, nics[0], group, "to the service")
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rx[1]) != 1 || len(rx[2]) != 1 {
		t.Fatalf("group members received %d and %d frames, want 1 and 1", len(rx[1]), len(rx[2]))
	}
	if len(rx[0]) != 0 {
		t.Fatalf("sender received its own multicast")
	}
}

func TestNICFilterRejectsForeignUnicast(t *testing.T) {
	s := sim.New(1)
	a, b, _, rxB, _ := twoNICs(s, DefaultLANConfig())
	_ = b
	send(t, a, eth.MakeAddr(99), "stray") // unknown dst floods to b
	_ = s.Run(time.Second)
	if len(*rxB) != 0 {
		t.Fatalf("NIC accepted a frame for another address")
	}
	if b.RxDrops == 0 {
		t.Fatal("drop not counted")
	}
}

func TestPromiscuousMode(t *testing.T) {
	s := sim.New(1)
	a, b, _, rxB, _ := twoNICs(s, DefaultLANConfig())
	b.SetPromiscuous(true)
	send(t, a, eth.MakeAddr(99), "stray")
	_ = s.Run(time.Second)
	if len(*rxB) != 1 {
		t.Fatalf("promiscuous NIC did not capture the frame")
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	s := sim.New(1)
	a, _, rxA, rxB, _ := twoNICs(s, DefaultLANConfig())
	send(t, a, eth.Broadcast, "hello all")
	_ = s.Run(time.Second)
	if len(*rxB) != 1 {
		t.Fatal("broadcast did not reach b")
	}
	if len(*rxA) != 0 {
		t.Fatal("broadcast echoed to sender")
	}
}

func TestNICFailureSilence(t *testing.T) {
	s := sim.New(1)
	a, b, rxA, rxB, _ := twoNICs(s, DefaultLANConfig())
	b.Fail()
	send(t, a, b.Addr(), "into the void")
	if err := b.Send(eth.Frame{Dst: a.Addr(), Type: eth.TypeIPv4}); err == nil {
		t.Fatal("failed NIC transmitted")
	}
	_ = s.Run(time.Second)
	if len(*rxB) != 0 {
		t.Fatal("failed NIC received")
	}
	b.Recover()
	send(t, b, a.Addr(), "back")
	_ = s.Run(time.Second)
	if len(*rxA) != 1 {
		t.Fatal("recovered NIC could not transmit")
	}
}

func TestLinkDown(t *testing.T) {
	s := sim.New(1)
	a, b, _, rxB, _ := twoNICs(s, DefaultLANConfig())
	_ = b
	// Cut a's cable in both directions.
	link := a.link
	link.SetCutFromA(true)
	link.SetCutFromB(true)
	send(t, a, b.Addr(), "dropped")
	_ = s.Run(time.Second)
	if len(*rxB) != 0 {
		t.Fatal("frame crossed a cut cable")
	}
	if link.Drops == 0 {
		t.Fatal("drop not counted")
	}
	link.SetCutFromA(false)
	link.SetCutFromB(false)
	send(t, a, b.Addr(), "works")
	_ = s.Run(time.Second)
	if len(*rxB) != 1 {
		t.Fatal("restored cable does not carry frames")
	}
}

// switchedPair wires a and b through a switch with 5 µs of forwarding
// latency on 100 Mbit/s, 50 µs links, teaches the switch b's port, and
// returns the instants b receives at.
func switchedPair(t *testing.T, s *sim.Simulator) (a, b *NIC, got *[]time.Duration) {
	t.Helper()
	sw := NewSwitch(s, "sw", 5*time.Microsecond)
	a = NewNIC(s, "a", eth.MakeAddr(1))
	b = NewNIC(s, "b", eth.MakeAddr(2))
	Connect(s, sw, a, DefaultLANConfig())
	Connect(s, sw, b, DefaultLANConfig())
	send(t, b, a.Addr(), "hello")
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	got = new([]time.Duration)
	b.SetHandler(func(eth.Frame) { *got = append(*got, s.Elapsed()) })
	return a, b, got
}

// A 100 B payload is a 118 B frame, 944 bits: 9,440 ns on the wire. It
// reaches the switch one serialisation and one propagation delay after Send
// and b the switch's latency, a second serialisation and a second
// propagation delay after that.
const (
	wireArrival = 9_440 + 50_000
	switchedAt  = wireArrival + 5_000 + 9_440 + 50_000 // 123.88 µs
)

// TestSwitchedFrameTiming pins a switched frame's arrival to the
// nanosecond and its cost to two events, one per link: the switch's latency
// rides the link into it, and the port forwards inside that delivery.
func TestSwitchedFrameTiming(t *testing.T) {
	s := sim.New(1)
	a, b, got := switchedPair(t, s)
	start, fired := s.Elapsed(), s.Fired()
	send(t, a, b.Addr(), string(make([]byte, 100)))
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(*got) != 1 || (*got)[0]-start != switchedAt {
		t.Fatalf("arrivals %v after %v, want one at +%v", *got, start, time.Duration(switchedAt))
	}
	if n := s.Fired() - fired; n != 2 {
		t.Errorf("a switched frame fired %d events, want 2", n)
	}
}

// TestCableFlipInsideTheDwell: a cut judges a frame as it is sent, so a
// flip while the frame is on the wire or inside the switch's 5 µs dwell
// changes nothing for it. A cut 2 µs into the dwell spares the frame; a cut
// in place at the send and lifted inside the dwell still drops it.
func TestCableFlipInsideTheDwell(t *testing.T) {
	for _, tc := range []struct {
		name       string
		flips      []time.Duration // alternately cut, restored, ... after Send (0: before it)
		wantFrames int
	}{
		{"cut-during-dwell", []time.Duration{wireArrival + 2_000}, 1},
		{"restore-during-dwell", []time.Duration{0, wireArrival + 2_000}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			a, b, got := switchedPair(t, s)
			start := s.Elapsed()
			for i, at := range tc.flips {
				cut := i%2 == 0
				if at == 0 {
					a.link.SetCutFromA(cut)
					continue
				}
				s.Schedule(at, func() { a.link.SetCutFromA(cut) })
			}
			send(t, a, b.Addr(), string(make([]byte, 100)))
			if err := s.Run(time.Second); err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(*got) != tc.wantFrames || a.link.Drops != int64(1-tc.wantFrames) {
				t.Fatalf("%d frames arrived, %d dropped; want %d arrived", len(*got), a.link.Drops, tc.wantFrames)
			}
			if tc.wantFrames == 1 && (*got)[0]-start != switchedAt {
				t.Errorf("frame arrived at +%v, want +%v", (*got)[0]-start, time.Duration(switchedAt))
			}
		})
	}
}

// TestDropWindow: b's link drops what the switch sends b for the window.
func TestDropWindow(t *testing.T) {
	s := sim.New(1)
	a, b, _, rxB, _ := twoNICs(s, DefaultLANConfig())
	b.link.DropFromBFor(100 * time.Millisecond)
	send(t, a, b.Addr(), "lost")
	// A shorter window opened inside the first must not cut it short.
	s.Schedule(20*time.Millisecond, func() { b.link.DropFromBFor(10 * time.Millisecond) })
	s.Schedule(50*time.Millisecond, func() { send(t, a, b.Addr(), "lost too") })
	s.Schedule(200*time.Millisecond, func() { send(t, a, b.Addr(), "arrives") })
	_ = s.Run(time.Second)
	if len(*rxB) != 1 || string((*rxB)[0].Payload) != "arrives" {
		t.Fatalf("drop window misbehaved: %d frames", len(*rxB))
	}
}

// TestDropWindowLongerThanTheClock: a window whose end the clock cannot
// represent never closes; kept as an integer since Epoch, now + d must not
// wrap into the past and open nothing.
func TestDropWindowLongerThanTheClock(t *testing.T) {
	s := sim.New(1)
	a, b, _, rxB, _ := twoNICs(s, DefaultLANConfig())
	s.Schedule(time.Millisecond, func() {
		b.link.DropFromBFor(math.MaxInt64)
		send(t, a, b.Addr(), "lost")
	})
	_ = s.Run(time.Second)
	if len(*rxB) != 0 || b.link.Drops != 1 {
		t.Fatalf("%d frames crossed a window opened for ever, %d dropped", len(*rxB), b.link.Drops)
	}
}

func TestLossRate(t *testing.T) {
	s := sim.New(7)
	cfg := DefaultLANConfig()
	cfg.LossRate = 0.5
	a, b, _, rxB, _ := twoNICs(s, cfg)
	_ = b
	const total = 400
	for i := 0; i < total; i++ {
		d := time.Duration(i) * time.Millisecond
		s.Schedule(d, func() { _ = a.Send(eth.Frame{Dst: b.Addr(), Type: eth.TypeIPv4, Payload: []byte("x")}) })
	}
	_ = s.Run(time.Minute)
	got := len(*rxB)
	if got < total/4 || got > 3*total/4 {
		t.Fatalf("50%% loss delivered %d/%d", got, total)
	}
}

// TestBandwidthSerialization checks frames are paced at the configured
// line rate: 10 full frames at 100 Mbit/s take ~1.2 ms wire time.
func TestBandwidthSerialization(t *testing.T) {
	s := sim.New(1)
	cfg := LinkConfig{BitsPerSecond: 100_000_000, Delay: 0}
	a, b, _, rxB, _ := twoNICs(s, cfg)
	_ = b
	payload := make([]byte, 1500)
	const frames = 10
	for i := 0; i < frames; i++ {
		_ = a.Send(eth.Frame{Dst: b.Addr(), Type: eth.TypeIPv4, Payload: payload})
	}
	var last time.Time
	b.SetHandler(func(eth.Frame) { last = s.Now() })
	_ = s.Run(time.Second)
	_ = rxB
	wire := int64(1500+eth.HeaderLen+eth.FCSLen) * 8 * frames
	want := time.Duration(wire * int64(time.Second) / 100_000_000)
	got := last.Sub(sim.Epoch)
	if got < want || got > want+time.Millisecond {
		t.Fatalf("10 frames took %v on the wire, want ≈%v", got, want)
	}
}

// TestExtraDelayBurst checks the latency-burst hook: frames sent during a
// SetExtraDelay window arrive later by exactly the extra one-way delay, and
// clearing it restores the configured latency.
func TestExtraDelayBurst(t *testing.T) {
	s := sim.New(1)
	cfg := LinkConfig{Delay: time.Millisecond} // infinite rate: arrival = send + delay
	a, b, _, _, _ := twoNICs(s, cfg)
	var arrivals []time.Duration
	b.SetHandler(func(eth.Frame) { arrivals = append(arrivals, s.Elapsed()) })

	send(t, a, b.Addr(), "base")
	s.Schedule(10*time.Millisecond, func() {
		a.link.SetExtraDelay(5 * time.Millisecond)
		send(t, a, b.Addr(), "slow")
	})
	s.Schedule(20*time.Millisecond, func() {
		a.link.SetExtraDelay(0)
		send(t, a, b.Addr(), "restored")
	})
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("got %d frames, want 3", len(arrivals))
	}
	// Each hop crosses two links (NIC↔switch, switch↔NIC) plus the switch's
	// forwarding latency, but only a's link carries the burst.
	base := arrivals[0]
	if got := arrivals[1] - 10*time.Millisecond; got != base+5*time.Millisecond {
		t.Errorf("burst frame latency %v, want %v", got, base+5*time.Millisecond)
	}
	if got := arrivals[2] - 20*time.Millisecond; got != base {
		t.Errorf("post-burst latency %v, want %v", got, base)
	}
}

func TestCounters(t *testing.T) {
	s := sim.New(1)
	a, b, _, _, sw := twoNICs(s, DefaultLANConfig())
	send(t, a, b.Addr(), "count me")
	_ = s.Run(time.Second)
	if a.TxFrames != 1 || b.RxFrames != 1 {
		t.Fatalf("tx=%d rx=%d", a.TxFrames, b.RxFrames)
	}
	if a.TxBytes == 0 || b.RxBytes != a.TxBytes {
		t.Fatalf("byte counters: tx=%d rx=%d", a.TxBytes, b.RxBytes)
	}
	if sw.Forwarded == 0 {
		t.Fatal("switch forwarded nothing")
	}
}
