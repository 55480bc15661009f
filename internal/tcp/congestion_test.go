package tcp

import (
	"testing"
	"time"

	"repro/internal/netem"
)

// TestSlowStartExponentialRamp runs a bulk transfer over a long-delay path
// (RTT ≈ 80 ms) and checks that delivered bytes grow super-linearly across
// the first round trips — the signature of slow start's per-ack window
// doubling.
func TestSlowStartExponentialRamp(t *testing.T) {
	cfg := netem.LinkConfig{BitsPerSecond: 1_000_000_000, Delay: 40 * time.Millisecond}
	h := newPair(t, 80, cfg, Options{RecvBufferSize: 4 << 20})
	client, server := connectPair(t, h, 80)
	sk := attachSink(server)
	payload := make([]byte, 4<<20)
	writeAll(client, payload)

	const rtt = 80 * time.Millisecond
	var perRTT []int
	prev := 0
	for i := 0; i < 6; i++ {
		_ = h.sim.Run(rtt)
		perRTT = append(perRTT, len(sk.data)-prev)
		prev = len(sk.data)
	}
	// Windows 2..4 (steady slow-start region) must each carry clearly
	// more than the previous — at least 1.5× while cwnd is the
	// bottleneck.
	grew := 0
	for i := 1; i < len(perRTT); i++ {
		if perRTT[i] > perRTT[i-1]*3/2 {
			grew++
		}
	}
	if grew < 3 {
		t.Fatalf("slow start did not ramp: per-RTT deliveries %v", perRTT)
	}
	_ = h.sim.Run(time.Minute)
	if len(sk.data) != len(payload) {
		t.Fatalf("transfer incomplete: %d/%d", len(sk.data), len(payload))
	}
	if client.Retransmits != 0 {
		t.Fatalf("%d spurious retransmits on a clean link", client.Retransmits)
	}
}

// TestRTOTracksPathRTT: after steady acks the retransmission timeout
// reflects the measured RTT rather than staying at the 1 s initial value —
// on an 80 ms-RTT path it converges to the 200 ms MinRTO floor, and on a
// 400 ms one it settles above the path RTT.
func TestRTOTracksPathRTT(t *testing.T) {
	rtoAfter := func(seed int64, delay time.Duration) time.Duration {
		cfg := netem.LinkConfig{BitsPerSecond: 1_000_000_000, Delay: delay}
		h := newPair(t, seed, cfg, Options{})
		client, server := connectPair(t, h, 80)
		attachSink(server)
		writeAll(client, make([]byte, 1<<20))
		_ = h.sim.Run(10 * time.Second)
		return client.RTO()
	}
	if rto := rtoAfter(81, 40*time.Millisecond); rto != MinRTO {
		t.Errorf("RTO %v on an 80ms-RTT path, want the %v floor", rto, MinRTO)
	}
	if rto := rtoAfter(81, 200*time.Millisecond); rto < 400*time.Millisecond || rto >= initialRTO {
		t.Errorf("RTO %v on a 400ms-RTT path, want at least the RTT and below the %v initial value", rto, initialRTO)
	}
}

// TestTimeoutCollapsesWindow: a blackout mid-transfer collapses cwnd to
// one MSS and the stream still completes after the link heals.
func TestTimeoutCollapsesWindow(t *testing.T) {
	h := newPair(t, 82, lan(), Options{})
	client, server := connectPair(t, h, 80)
	sk := attachSink(server)
	payload := make([]byte, 2<<20)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	writeAll(client, payload)
	_ = h.sim.Run(50 * time.Millisecond)
	cwndBefore := client.cwnd
	h.cut(true)
	_ = h.sim.Run(2 * time.Second)
	if client.cwnd != client.mss {
		t.Fatalf("cwnd = %d after timeouts, want 1 MSS (%d)", client.cwnd, client.mss)
	}
	if client.cwnd >= cwndBefore {
		t.Fatalf("cwnd did not collapse: %d -> %d", cwndBefore, client.cwnd)
	}
	h.cut(false)
	_ = h.sim.Run(5 * time.Minute)
	if len(sk.data) != len(payload) {
		t.Fatalf("transfer incomplete after heal: %d/%d", len(sk.data), len(payload))
	}
}

// TestFastRetransmitAvoidsTimeout: a single dropped segment is repaired by
// duplicate acks well before the RTO fires.
func TestFastRetransmitAvoidsTimeout(t *testing.T) {
	h := newPair(t, 83, lan(), Options{})
	client, server := connectPair(t, h, 80)
	// The server (side B) sends, so the drop window lands on data segments.
	sk := attachSink(client)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 5)
	}
	writeAll(server, payload)
	// Drop a short burst early in the transfer: ~2 frames at 100 Mb/s.
	h.sim.Schedule(10*time.Millisecond, func() { h.link.DropFromBFor(250 * time.Microsecond) })
	start := h.sim.Now()
	// Step in small slices so the completion time is observable (Run
	// always advances the clock to its deadline).
	var elapsed time.Duration
	for i := 0; i < 200 && len(sk.data) < len(payload); i++ {
		_ = h.sim.Run(5 * time.Millisecond)
		elapsed = h.sim.Since(start)
	}
	if len(sk.data) != len(payload) {
		t.Fatalf("transfer incomplete: %d/%d", len(sk.data), len(payload))
	}
	if server.Retransmits == 0 {
		t.Fatal("no retransmission despite the drop")
	}
	// The whole 1 MiB at ~96 Mb/s takes ~90 ms; a 200 ms RTO stall
	// would push completion well past 300 ms.
	if elapsed > 250*time.Millisecond {
		t.Fatalf("transfer took %v — the loss was repaired by timeout, not fast retransmit", elapsed)
	}
}
