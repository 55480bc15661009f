package hb

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ip"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/trace"
)

func sampleMessage() Message {
	return Message{
		Role:      RolePrimary,
		Seq:       42,
		PingValid: true,
		PingOK:    false,
		Conns: []ConnState{{
			RemoteAddr:         ip.MakeAddr(10, 0, 0, 1),
			RemotePort:         50123,
			LocalPort:          80,
			ISS:                0xdead0000,
			IRS:                0xbeef0000,
			LastByteReceived:   100,
			LastAckReceived:    200,
			LastAppByteWritten: 300,
			LastAppByteRead:    400,
			FINGenerated:       true,
			Established:        true,
		}},
	}
}

// sampleMessageWith is sampleMessage carrying conns copies of its
// connection, each on its own client port.
func sampleMessageWith(conns int) Message {
	m := sampleMessage()
	conn := m.Conns[0]
	m.Conns = make([]ConnState, conns)
	for i := range m.Conns {
		m.Conns[i] = conn
		m.Conns[i].RemotePort = uint16(i)
	}
	return m
}

// BenchmarkMessageCodec is one heartbeat's encode and decode, carrying one
// connection and the scale workload's thousand.
func BenchmarkMessageCodec(b *testing.B) {
	for _, conns := range []int{1, 1000} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			m := sampleMessageWith(conns)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				raw, err := m.Encode()
				if err != nil {
					b.Fatalf("encode: %v", err)
				}
				if _, err := Decode(raw); err != nil {
					b.Fatalf("decode: %v", err)
				}
			}
		})
	}
}

func TestMessageRoundtrip(t *testing.T) {
	m := sampleMessage()
	raw, err := m.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Role != m.Role || got.Seq != m.Seq || got.PingValid != m.PingValid || got.PingOK != m.PingOK {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	if len(got.Conns) != 1 || got.Conns[0] != m.Conns[0] {
		t.Fatalf("conn mismatch: %+v vs %+v", got.Conns, m.Conns)
	}
}

func TestMessageRoundtripProperty(t *testing.T) {
	fn := func(seq uint64, n uint8, base ConnState) bool {
		m := Message{Role: RoleBackup, Seq: seq}
		for i := 0; i < int(n%16); i++ {
			cs := base
			cs.LocalPort = uint16(i)
			m.Conns = append(m.Conns, cs)
		}
		raw, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		if err != nil || got.Seq != m.Seq || len(got.Conns) != len(m.Conns) {
			return false
		}
		for i := range m.Conns {
			if got.Conns[i] != m.Conns[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short garbage accepted")
	}
	m := sampleMessage()
	raw, _ := m.Encode()
	raw[0] ^= 0xff
	if _, err := Decode(raw); err == nil {
		t.Fatal("bad magic accepted")
	}
	raw[0] ^= 0xff
	raw[2] = 99
	if _, err := Decode(raw); err == nil {
		t.Fatal("bad version accepted")
	}
	raw[2] = version
	raw[13], raw[14] = 0xff, 0xff // absurd conn count
	if _, err := Decode(raw); err == nil {
		t.Fatal("truncated conn list accepted")
	}
}

// TestEncodedSizeBudget checks the paper's bandwidth analysis holds for our
// frame: the per-connection cost over a 115.2 kbit/s serial line at a
// 200 ms period must support on the order of 100 connections.
func TestEncodedSizeBudget(t *testing.T) {
	per := EncodedSize(1) - EncodedSize(0)
	if per > 40 {
		t.Fatalf("per-connection heartbeat cost %dB is far above the paper's ~20B budget", per)
	}
	// Capacity: rate / (bits per conn per second).
	bitsPerConnPerSec := float64(per*10) / 0.2 // 10 wire bits per byte, 200 ms period
	capacity := float64(serial.DefaultBitsPerSecond) / bitsPerConnPerSec
	if capacity < 60 {
		t.Fatalf("serial capacity only %.0f connections; the paper's design point is ~100", capacity)
	}
}

func TestUnwrap32(t *testing.T) {
	cases := []struct {
		wire  uint32
		local int64
		want  int64
	}{
		{100, 90, 100},
		{100, 120, 100},
		{0, 1 << 32, 1 << 32},                // exact wrap
		{5, (1 << 32) - 3, (1 << 32) + 5},    // wrapped ahead
		{0xfffffffb, 1 << 32, (1 << 32) - 5}, // behind across wrap
	}
	for i, c := range cases {
		if got := Unwrap32(c.wire, c.local); got != c.want {
			t.Errorf("case %d: Unwrap32(%#x, %d) = %d, want %d", i, c.wire, c.local, got, c.want)
		}
	}
}

// TestWrapUnwrapProperty: unwrapping a wrapped value against any local
// reference within 2^31 recovers it exactly.
func TestWrapUnwrapProperty(t *testing.T) {
	fn := func(v uint64, jitter int32) bool {
		val := int64(v >> 1) // keep positive, leave headroom
		local := val + int64(jitter)/2
		if local < 0 {
			local = 0
		}
		return Unwrap32(Wrap32(val), local) == val
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// exchangerPair wires two exchangers over a serial pair only.
func exchangerPair(s *sim.Simulator, period time.Duration) (*Exchanger, *Exchanger) {
	tr := trace.NewRecorder(s.Now)
	pa, pb := serial.NewPair(s, "a/tty", "b/tty", 0)
	ea := NewExchanger(sim.NewClock(s), "a", period, tr, nil)
	eb := NewExchanger(sim.NewClock(s), "b", period, tr, nil)
	ea.Attach(NewSerialChannel(pa))
	eb.Attach(NewSerialChannel(pb))
	ea.Compose = func() Message { return Message{Role: RolePrimary} }
	eb.Compose = func() Message { return Message{Role: RoleBackup} }
	return ea, eb
}

func TestExchangerDelivery(t *testing.T) {
	s := sim.New(1)
	ea, eb := exchangerPair(s, 100*time.Millisecond)
	var got []Message
	eb.OnMessage = func(m Message, link LinkID) {
		if link != LinkSerial {
			t.Errorf("link = %v", link)
		}
		got = append(got, m)
	}
	ea.Start()
	eb.Start()
	_ = s.Run(time.Second)
	if len(got) < 9 || len(got) > 12 {
		t.Fatalf("received %d heartbeats in 1s at 100ms", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
	if eb.LinkDown(LinkSerial) {
		t.Fatal("live link reported down")
	}
}

func TestExchangerLinkDownAndRecovery(t *testing.T) {
	s := sim.New(1)
	ea, eb := exchangerPair(s, 100*time.Millisecond)
	var downs, ups int
	eb.OnLinkDown = func(LinkID) { downs++ }
	eb.OnLinkUp = func(LinkID) { ups++ }
	ea.Start()
	eb.Start()
	_ = s.Run(time.Second)
	ea.Stop() // silence
	_ = s.Run(time.Second)
	if downs != 1 {
		t.Fatalf("down events = %d, want 1", downs)
	}
	if !eb.LinkDown(LinkSerial) || !eb.AllLinksDown() {
		t.Fatal("silent link not reported down")
	}
	// The sender beating again brings it back.
	ea.Compose = func() Message { return Message{Role: RolePrimary} }
	// Restart the original exchanger's ticker by re-creating it.
	s.Schedule(0, func() { ea.stopped = false; ea.Start() })
	_ = s.Run(time.Second)
	if ups != 1 {
		t.Fatalf("up events = %d, want 1", ups)
	}
	if eb.LinkDown(LinkSerial) {
		t.Fatal("recovered link still reported down")
	}
}

func TestExchangerSendNow(t *testing.T) {
	s := sim.New(1)
	ea, eb := exchangerPair(s, time.Hour)
	count := 0
	eb.OnMessage = func(Message, LinkID) { count++ }
	ea.Start()
	eb.Start()
	_ = s.Run(time.Second)
	if count != 1 { // only the immediate first beat
		t.Fatalf("count = %d after start", count)
	}
	ea.SendNow()
	_ = s.Run(time.Second)
	if count != 2 {
		t.Fatalf("SendNow did not deliver: count = %d", count)
	}
}
