package tcp

import (
	"bytes"
	"testing"
	"time"
)

// TestNagleCoalescesSmallWrites: with Nagle on, a burst of tiny writes
// produces far fewer data segments than writes; with it off, roughly one
// segment per write.
func TestNagleCoalescesSmallWrites(t *testing.T) {
	run := func(nagle bool) (segments int64, received []byte) {
		h := newPair(t, 62, lan(), Options{Nagle: nagle})
		client, server := connectPair(t, h, 80)
		sk := attachSink(server)
		before := h.stackA.Emitted
		// 50 back-to-back 10-byte writes: with Nagle the first goes
		// out alone and the rest coalesce behind it until its ack.
		for i := 0; i < 50; i++ {
			data := bytes.Repeat([]byte{byte('a' + i%26)}, 10)
			if _, err := client.Write(data); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		_ = h.sim.Run(5 * time.Second)
		return h.stackA.Emitted - before, sk.data
	}
	segsOn, dataOn := run(true)
	segsOff, dataOff := run(false)
	if len(dataOn) != 500 || len(dataOff) != 500 {
		t.Fatalf("stream truncated: nagle=%d plain=%d", len(dataOn), len(dataOff))
	}
	if segsOn >= segsOff {
		t.Fatalf("Nagle did not reduce segment count: %d vs %d", segsOn, segsOff)
	}
	t.Logf("segments: nagle=%d, off=%d", segsOn, segsOff)
}

// TestNagleDoesNotStallFIN: closing flushes held data immediately.
func TestNagleDoesNotStallFIN(t *testing.T) {
	h := newPair(t, 63, lan(), Options{Nagle: true})
	client, server := connectPair(t, h, 80)
	sk := attachSink(server)
	_, _ = client.Write([]byte("first"))
	_, _ = client.Write([]byte("second")) // held by Nagle behind "first"
	_ = client.Close()
	_ = h.sim.Run(time.Second)
	if string(sk.data) != "firstsecond" || !sk.eof {
		t.Fatalf("data %q eof=%v", sk.data, sk.eof)
	}
}

// TestDelayedAckReducesPureAcks: a one-directional bulk transfer with
// delayed acks emits roughly half the acknowledgements.
func TestDelayedAckReducesPureAcks(t *testing.T) {
	run := func(delayed bool) int64 {
		h := newPair(t, 64, lan(), Options{DelayedACK: delayed})
		client, server := connectPair(t, h, 80)
		attachSink(server)
		payload := make([]byte, 1<<20)
		writeAll(client, payload)
		_ = h.sim.Run(time.Minute)
		return h.stackB.Emitted // segments from the pure receiver = acks
	}
	delayed := run(true)
	immediate := run(false)
	if delayed >= immediate*3/4 {
		t.Fatalf("delayed acks did not reduce ack volume: %d vs %d", delayed, immediate)
	}
	t.Logf("receiver segments: delayed=%d immediate=%d", delayed, immediate)
}

// TestDelayedAckTimerBoundsLatency: a lone segment is still acknowledged
// within the ack-delay bound, so the sender's RTO never fires.
func TestDelayedAckTimerBoundsLatency(t *testing.T) {
	h := newPair(t, 65, lan(), Options{DelayedACK: true})
	client, server := connectPair(t, h, 80)
	attachSink(server)
	if _, err := client.Write([]byte("lone segment")); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = h.sim.Run(100 * time.Millisecond)
	if client.LastAckReceived() != 12 {
		t.Fatalf("lone segment not acked within the delay bound: una=%d", client.LastAckReceived())
	}
	if client.Retransmits != 0 {
		t.Fatalf("delayed ack caused %d retransmissions", client.Retransmits)
	}
}

// TestDelayedAckStillDupAcksOutOfOrder: fast retransmit must keep working
// under delayed acks — out-of-order arrivals produce immediate duplicate
// acks.
func TestDelayedAckStillDupAcksOutOfOrder(t *testing.T) {
	cfg := lan()
	cfg.LossRate = 0.03
	h := newPair(t, 66, cfg, Options{DelayedACK: true})
	client, server := connectPair(t, h, 80)
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	sk := attachSink(server)
	writeAll(client, payload)
	_ = h.sim.Run(5 * time.Minute)
	if !bytes.Equal(sk.data, payload) {
		t.Fatalf("lossy transfer with delayed acks corrupted: %d/%d", len(sk.data), len(payload))
	}
}

// TestNagleDelayedAckInteraction demonstrates the classic pathology the
// two options create together on request/response traffic: the sender's
// held sub-MSS segment waits for an ack the receiver is deliberately
// delaying, adding ~ackDelay (40 ms) per exchange.
func TestNagleDelayedAckInteraction(t *testing.T) {
	round := func(nagle, delayed bool) time.Duration {
		h := newPair(t, 67, lan(), Options{Nagle: nagle, DelayedACK: delayed})
		client, server := connectPair(t, h, 80)
		attachSink(server)
		start := h.sim.Now()
		// Two back-to-back small writes: the second is Nagle-held
		// until the first is acked; the receiver delays that ack.
		_, _ = client.Write(bytes.Repeat([]byte("x"), 100))
		_, _ = client.Write(bytes.Repeat([]byte("y"), 100))
		var done time.Time
		prev := server.OnReadable
		_ = prev
		target := int64(200)
		server.OnReadable = func() {
			buf := make([]byte, 1024)
			for {
				n, _ := server.Read(buf)
				if n == 0 {
					return
				}
				if server.LastAppByteRead() >= target && done.IsZero() {
					done = h.sim.Now()
				}
			}
		}
		_ = h.sim.Run(2 * time.Second)
		if done.IsZero() {
			t.Fatalf("exchange never completed (nagle=%v delayed=%v)", nagle, delayed)
		}
		return done.Sub(start)
	}
	pathological := round(true, true)
	clean := round(false, false)
	if pathological < 35*time.Millisecond {
		t.Fatalf("Nagle+delayed-ack exchange took only %v — the interaction is not being modelled", pathological)
	}
	if clean > 10*time.Millisecond {
		t.Fatalf("plain exchange took %v — too slow for a LAN", clean)
	}
	t.Logf("200B in two writes: nagle+delack=%v, neither=%v", pathological, clean)
}
