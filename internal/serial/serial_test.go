package serial

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func pair(s *sim.Simulator, rate int64) (*Port, *Port, *[][]byte, *[][]byte) {
	a, b := NewPair(s, "a", "b", rate)
	var rxA, rxB [][]byte
	a.SetHandler(func(m []byte) { rxA = append(rxA, append([]byte(nil), m...)) })
	b.SetHandler(func(m []byte) { rxB = append(rxB, append([]byte(nil), m...)) })
	return a, b, &rxA, &rxB
}

func TestMessageDelivery(t *testing.T) {
	s := sim.New(1)
	a, _, _, rxB := pair(s, 0)
	if err := a.Send([]byte("heartbeat")); err != nil {
		t.Fatalf("send: %v", err)
	}
	_ = s.Run(time.Second)
	if len(*rxB) != 1 || !bytes.Equal((*rxB)[0], []byte("heartbeat")) {
		t.Fatalf("rx = %v", *rxB)
	}
}

func TestFullDuplex(t *testing.T) {
	s := sim.New(1)
	a, b, rxA, rxB := pair(s, 0)
	_ = a.Send([]byte("from a"))
	_ = b.Send([]byte("from b"))
	_ = s.Run(time.Second)
	if len(*rxA) != 1 || len(*rxB) != 1 {
		t.Fatalf("duplex delivery failed: %d/%d", len(*rxA), len(*rxB))
	}
}

// TestSerializationDelay checks the 115.2 kbit/s line rate with 10-bit
// byte framing: a 100-byte message (102 framed) takes ~8.9 ms.
func TestSerializationDelay(t *testing.T) {
	s := sim.New(1)
	a, b, _, _ := pair(s, DefaultBitsPerSecond)
	var at time.Time
	b.SetHandler(func([]byte) { at = s.Now() })
	_ = a.Send(make([]byte, 100))
	_ = s.Run(time.Second)
	want := time.Duration(int64(102*BitsPerByte) * int64(time.Second) / DefaultBitsPerSecond)
	if got := at.Sub(sim.Epoch); got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

// TestQueueingUnderLoad checks messages serialise one at a time: the
// second message waits for the first, and QueueDelay reports saturation.
func TestQueueingUnderLoad(t *testing.T) {
	s := sim.New(1)
	a, b, _, _ := pair(s, DefaultBitsPerSecond)
	var times []time.Time
	b.SetHandler(func([]byte) { times = append(times, s.Now()) })
	_ = a.Send(make([]byte, 100))
	_ = a.Send(make([]byte, 100))
	if a.QueueDelay() == 0 {
		t.Fatal("queue delay zero with two messages in flight")
	}
	_ = s.Run(time.Second)
	if len(times) != 2 {
		t.Fatalf("delivered %d messages", len(times))
	}
	per := time.Duration(int64(102*BitsPerByte) * int64(time.Second) / DefaultBitsPerSecond)
	if gap := times[1].Sub(times[0]); gap != per {
		t.Fatalf("second message arrived %v after first, want %v", gap, per)
	}
}

func TestDownDropsBothWays(t *testing.T) {
	s := sim.New(1)
	a, b, rxA, rxB := pair(s, 0)
	a.SetDown(true)
	if err := a.Send([]byte("x")); !errors.Is(err, ErrPortDown) {
		t.Fatalf("send on down port: %v", err)
	}
	_ = b.Send([]byte("y")) // transmits, but a is down and must drop
	_ = s.Run(time.Second)
	if len(*rxA) != 0 || len(*rxB) != 0 {
		t.Fatalf("down port leaked messages: %d/%d", len(*rxA), len(*rxB))
	}
	if a.Drops == 0 {
		t.Fatal("receiver drop not counted")
	}
	a.SetDown(false)
	_ = b.Send([]byte("z"))
	_ = s.Run(time.Second)
	if len(*rxA) != 1 {
		t.Fatal("restored port does not receive")
	}
}

func TestOversizedRejected(t *testing.T) {
	s := sim.New(1)
	a, _, _, _ := pair(s, 0)
	if err := a.Send(make([]byte, MaxMessageLen+1)); !errors.Is(err, ErrMessageSize) {
		t.Fatalf("err = %v, want ErrMessageSize", err)
	}
}

func TestUnwiredRejected(t *testing.T) {
	s := sim.New(1)
	p := &Port{sim: s, name: "solo", rate: DefaultBitsPerSecond}
	if err := p.Send([]byte("x")); !errors.Is(err, ErrNotWired) {
		t.Fatalf("err = %v, want ErrNotWired", err)
	}
}

func TestCounters(t *testing.T) {
	s := sim.New(1)
	a, b, _, _ := pair(s, 0)
	_ = a.Send([]byte("12345"))
	_ = s.Run(time.Second)
	if a.TxMessages != 1 || a.TxBytes != 7 { // 2-byte frame + 5 payload
		t.Fatalf("tx counters: %d msgs %d bytes", a.TxMessages, a.TxBytes)
	}
	if b.RxMessages != 1 {
		t.Fatalf("rx counter: %d", b.RxMessages)
	}
}
