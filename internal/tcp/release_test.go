package tcp

import (
	"bytes"
	"testing"
	"time"
)

// streamBytes returns n bytes whose values do not repeat with any short
// period, so a chunk delivered at the wrong offset shows.
func streamBytes(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + i>>9)
	}
	return p
}

// TestFinishedConnHoldsNoSendRing: once the peer's FIN is in and every byte
// the connection wrote is acknowledged, its send ring and scratch are gone,
// whichever of the two came last; until then the ring stays. A Write after
// that grows a new ring, and the peer reads the right bytes.
func TestFinishedConnHoldsNoSendRing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		finFirst bool // the FIN arrives while bytes are unacknowledged
	}{
		{"acknowledged then FIN", false},
		{"FIN then acknowledged", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newPair(t, 43, lan(), Options{})
			client, server := connectPair(t, h, 80)
			got := attachSink(client)
			data := streamBytes(300 << 10)
			first, second := data[:100<<10], data[100<<10:]
			writeAll(server, first)
			if tc.finFirst {
				_ = client.Close()
				_ = h.sim.Run(time.Millisecond)
				if !server.PeerFINSeen() || server.sb.Len() == 0 {
					t.Fatalf("FIN seen %v with %d bytes unacknowledged; the case needs both", server.PeerFINSeen(), server.sb.Len())
				}
			} else {
				_ = h.sim.Run(time.Second)
				if server.sb.Len() != 0 || server.sb.ring == nil {
					t.Fatalf("before the FIN: %d bytes unacknowledged, ring of %d; want 0 and a kept ring", server.sb.Len(), len(server.sb.ring))
				}
				_ = client.Close()
			}
			_ = h.sim.Run(time.Second)
			if server.State() != StateCloseWait || server.sb.ring != nil || server.sb.wrapped != nil {
				t.Fatalf("%v with a ring of %d and scratch of %d bytes; want CLOSE_WAIT and neither", server.State(), len(server.sb.ring), len(server.sb.wrapped))
			}

			writeAll(server, second)
			if server.sb.ring == nil {
				t.Fatal("a Write after the ring went did not grow a new one")
			}
			_ = h.sim.Run(time.Second)
			if !bytes.Equal(got.data, data) {
				t.Fatalf("client read %d bytes, want the %d written, in order", len(got.data), len(data))
			}
			if server.sb.ring != nil {
				t.Fatalf("ring of %d bytes kept after the second write was acknowledged", len(server.sb.ring))
			}
		})
	}
}

// TestEchoKeepsItsSendRing: a ping-pong exchange empties both send buffers
// every round but sends no FIN, so the rings stay and a round allocates
// nothing — a ring let go whenever it empties would be regrown each round.
func TestEchoKeepsItsSendRing(t *testing.T) {
	h := newPair(t, 44, lan(), Options{})
	client, server := connectPair(t, h, 80)
	msg, sbuf, cbuf := streamBytes(64), make([]byte, 64), make([]byte, 64)
	server.OnReadable = func() {
		for n, _ := server.Read(sbuf); n > 0; n, _ = server.Read(sbuf) {
			_, _ = server.Write(sbuf[:n])
		}
	}
	echoed := 0
	client.OnReadable = func() {
		for n, _ := client.Read(cbuf); n > 0; n, _ = client.Read(cbuf) {
			echoed += n
		}
	}
	rounds := 0
	round := func() {
		rounds++
		if n, err := client.Write(msg); n != len(msg) || err != nil {
			t.Fatalf("round %d: wrote %d, %v", rounds, n, err)
		}
		if err := h.sim.Run(time.Second); err != nil {
			t.Fatalf("round %d: %v", rounds, err)
		}
	}
	for i := 0; i < 10; i++ {
		round() // pools and free lists reach their steady state
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("an echo round allocated %.1f times, want 0", n)
	}
	if echoed != rounds*len(msg) {
		t.Fatalf("%d bytes echoed in %d rounds of %d", echoed, rounds, len(msg))
	}
	if client.sb.ring == nil || server.sb.ring == nil {
		t.Fatal("a send ring went without a FIN")
	}
}
