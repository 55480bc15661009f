package sttcp

import (
	"testing"
	"time"
)

// suspTick advances the clock and runs one scorer tick, exactly as
// runDetectors would, on a fresh report of the peer's view. The peer's
// receive offset mirrors the local one: these tests model peers whose
// heartbeats and network stack are healthy (a starved host still ACKs on
// time — only the application is slow), so the scorer's input gate stays
// open. TestSuspicionInputStarvedExonerated covers the gate itself.
func (h *detectorHarness) suspTick(dt time.Duration) {
	h.step(dt)
	now := h.sim.Now()
	h.rc.peerLBR, h.rc.peerAt = h.conn.LastByteReceived(), now
	worst := h.node.respStaleness(h.rc, now)
	h.node.scoreSuspicion(now, worst)
}

// TestSuspicionStarvedPeerConvicted: a peer that stays continuously
// behind a stream of local writes, each position reached only long after
// the SLO, accrues suspicion to the threshold and is declared failed.
func TestSuspicionStarvedPeerConvicted(t *testing.T) {
	h := newDetectorHarness(t, nil)
	h.localProgress(t, 512)
	deadline := h.sim.Now().Add(4 * time.Second)
	for h.node.State() == StateActive {
		if h.sim.Now().After(deadline) {
			t.Fatalf("starved peer never convicted (score %.2f)", h.node.susp.score)
		}
		h.suspTick(50 * time.Millisecond)
	}
	if h.node.State() != StateNonFT {
		t.Fatalf("node state %v after conviction, want non-FT", h.node.State())
	}
}

// TestSuspicionOscillatingCatchupConvicted is the regression the sticky
// per-advance lag exists for: a request/response workload self-throttles
// against a slow peer, so the peer fully catches up between rounds and
// an instantaneous staleness measure resets just before every violation
// matures. The scorer must still convict, because each advance arrives
// far past the SLO.
func TestSuspicionOscillatingCatchupConvicted(t *testing.T) {
	h := newDetectorHarness(t, nil)
	pos := 0
	for round := 0; round < 8 && h.node.State() == StateActive; round++ {
		h.localProgress(t, 512)
		pos += 512
		// The peer answers this round 600ms late (SLO is 400ms), then
		// catches up completely before the next round starts.
		for i := 0; i < 12 && h.node.State() == StateActive; i++ {
			h.suspTick(50 * time.Millisecond)
		}
		h.rc.peerAppW = int64(pos)
		h.suspTick(10 * time.Millisecond)
	}
	if h.node.State() != StateNonFT {
		t.Fatalf("oscillating slow peer never convicted (score %.2f)", h.node.susp.score)
	}
}

// TestSuspicionHealthyPeerUntouched: a peer answering every round well
// inside the SLO never accrues score, and the node stays active.
func TestSuspicionHealthyPeerUntouched(t *testing.T) {
	h := newDetectorHarness(t, nil)
	pos := 0
	for round := 0; round < 40; round++ {
		h.localProgress(t, 512)
		pos += 512
		// Answered 150ms later: two scorer ticks behind, then caught up.
		h.suspTick(75 * time.Millisecond)
		h.suspTick(75 * time.Millisecond)
		h.rc.peerAppW = int64(pos)
		h.suspTick(10 * time.Millisecond)
	}
	if h.node.State() != StateActive {
		t.Fatalf("healthy peer convicted: state %v", h.node.State())
	}
	if s := h.node.susp.score; s != 0 {
		t.Errorf("healthy peer left residual score %.3f", s)
	}
}

// TestSuspicionBriefStallDecays: one stall past the SLO accrues score
// but nowhere near the threshold, and healthy traffic afterwards drains
// the bucket back to zero — one-off retransmission hiccups must not
// linger.
func TestSuspicionBriefStallDecays(t *testing.T) {
	h := newDetectorHarness(t, nil)
	h.localProgress(t, 512)
	// 600ms stall: past the 400ms SLO for ~4 ticks.
	for i := 0; i < 12; i++ {
		h.suspTick(50 * time.Millisecond)
	}
	h.rc.peerAppW = 512
	h.suspTick(10 * time.Millisecond)
	if h.node.State() != StateActive {
		t.Fatalf("single stall convicted the peer: state %v", h.node.State())
	}
	after := h.node.susp.score
	if after <= 0 {
		t.Fatalf("stall accrued no score")
	}
	// The peer is caught up and the conversation idle: the sticky lag
	// expires after an SLO's worth of quiet and the bucket drains.
	for i := 0; i < 80; i++ {
		h.suspTick(50 * time.Millisecond)
	}
	if s := h.node.susp.score; s != 0 {
		t.Errorf("score %.3f never drained after recovery (was %.3f)", s, after)
	}
	if h.node.State() != StateActive {
		t.Fatalf("node state %v after recovery", h.node.State())
	}
}

// TestSuspicionInputStarvedExonerated: a peer whose *receive* offset
// trails ours is missing input (its link dropped the client's segments
// our tap saw), so however far its write position falls behind, no
// suspicion accrues — delivery failures belong to TCP retransmission
// and the crisp detectors, not the scorer.
func TestSuspicionInputStarvedExonerated(t *testing.T) {
	h := newDetectorHarness(t, nil)
	h.localProgress(t, 512)
	// The peer never reports receiving what we received: score must stay
	// zero no matter how long its write position stalls.
	for i := 0; i < 80; i++ {
		h.step(50 * time.Millisecond)
		now := h.sim.Now()
		h.node.scoreSuspicion(now, h.node.respStaleness(h.rc, now))
	}
	if h.node.State() != StateActive {
		t.Fatalf("input-starved peer convicted: state %v", h.node.State())
	}
	if s := h.node.susp.score; s != 0 {
		t.Errorf("input-starved peer accrued score %.3f", s)
	}
	// Once its input recovers, lateness accrued during the gap is not
	// counted against it either.
	h.rc.peerLBR = h.conn.LastByteReceived()
	h.rc.peerAppW = h.conn.LastAppByteWritten()
	h.suspTick(50 * time.Millisecond)
	if s := h.node.susp.score; s != 0 {
		t.Errorf("recovery advance accrued score %.3f", s)
	}
}

// TestSuspicionStickyLagExpires pins the expiry rule directly: after a
// late advance the sticky lag reads back through respStaleness, and once
// the peer has caught up and stayed idle past the SLO it reads zero.
func TestSuspicionStickyLagExpires(t *testing.T) {
	h := newDetectorHarness(t, nil)
	h.localProgress(t, 512)
	h.rc.peerLBR = h.conn.LastByteReceived() // input current; only the app is late
	h.node.respStaleness(h.rc, h.sim.Now())  // sample the write position
	h.step(600 * time.Millisecond)
	h.rc.peerAppW, h.rc.peerAt = 512, h.sim.Now() // answered 600ms late
	if got := h.node.respStaleness(h.rc, h.sim.Now()); got < 550*time.Millisecond {
		t.Fatalf("per-advance lag %v, want ≈600ms", got)
	}
	// Still sticky within the SLO window...
	h.step(200 * time.Millisecond)
	if got := h.node.respStaleness(h.rc, h.sim.Now()); got < 550*time.Millisecond {
		t.Fatalf("sticky lag %v expired too early", got)
	}
	// ...and expired once the idle quiet exceeds the SLO.
	h.step(300 * time.Millisecond)
	if got := h.node.respStaleness(h.rc, h.sim.Now()); got != 0 {
		t.Fatalf("sticky lag %v survived an idle, caught-up peer", got)
	}
}

// TestSuspicionJudgesTheReport: lateness is judged as of the report that
// carried the peer's position, not as of the tick that reads it. A healthy
// peer at a 1 s heartbeat reports caught up, then says nothing for a period
// while we write on: its report ages, the peer does not. Charged against
// the tick, that age convicted a healthy backup in failure-free downloads
// at 1 s and 2 s heartbeats.
func TestSuspicionJudgesTheReport(t *testing.T) {
	h := newDetectorHarness(t, func(c *Config) { c.HBPeriod = time.Second })
	for period := 0; period < 20; period++ {
		h.rc.peerAppW, h.rc.peerAt = h.conn.LastAppByteWritten(), h.sim.Now()
		for tick := 0; tick < 2; tick++ { // the detector runs every half period
			h.localProgress(t, 512)
			h.step(500 * time.Millisecond)
			h.rc.peerLBR = h.conn.LastByteReceived()
			now := h.sim.Now()
			h.node.scoreSuspicion(now, h.node.respStaleness(h.rc, now))
		}
	}
	if h.node.State() != StateActive {
		t.Fatalf("healthy peer convicted on its reports' age: state %v", h.node.State())
	}
	if s := h.node.susp.score; s != 0 {
		t.Errorf("healthy peer accrued score %.3f from its reports' age", s)
	}
}
