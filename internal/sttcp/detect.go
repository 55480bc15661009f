package sttcp

import (
	"fmt"
	"time"

	"repro/internal/hb"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Table 1's failure criteria. Each judges a symptom that must persist —
// §4.2.1's "lags … for AppMaxLagTime", §4.3's "client stream stalled" — and
// keeps that persistence on one of two clocks: a stall (the peer's position
// stuck at a watermark since t) or a held condition (true since t). A
// criterion that fires convicts, which opens the detection span backdated to
// when its symptom began.

// How long each criterion's symptom must hold before it convicts. The paper
// names AppMaxLagBytes, AppMaxLagTime and MaxDelayFIN as what a deployment
// tunes (Config); these holds are fixed (DESIGN.md §7).
const (
	// appLagByteHold is how long the byte lag of §4.2.1's first criterion
	// must exceed AppMaxLagBytes.
	appLagByteHold = time.Second

	// The client-data NIC criteria of §4.3: with the IP heartbeat down
	// past nicLagGrace (so momentary outages cannot kill a healthy peer),
	// the server that falls nicLagBytes further behind on the client stream
	// than when the link died, or stalls for nicLagTime while the other
	// side advances, has the dead NIC.
	nicLagGrace = time.Second
	nicLagBytes = 16 << 10
	nicLagTime  = 2 * time.Second

	// asymHold is how long the asymmetric-partition pattern must hold
	// (detectAsymLink).
	asymHold = time.Second
)

// AsymPartitionBound is how soon after the peer's transmit path dies the
// asymmetric-partition criterion convicts at heartbeat period hbPeriod, less
// ping and detector cadence: the IP link's timeout, nicLagGrace of outage,
// then asymHold of the pattern.
func AsymPartitionBound(hbPeriod time.Duration) time.Duration {
	return hb.Timeout(hbPeriod) + nicLagGrace + asymHold
}

// stall is the clock of a position the peer must keep advancing: at is where
// the peer's position has been stuck behind ours since since (zero while it
// is not behind).
type stall struct {
	at    int64
	since time.Time
}

// stuck advances the clock to now with the peer's and our positions and
// reports whether the peer has been stuck behind us for longer than limit.
// Catching up stops the clock; any progress restarts it.
func (s *stall) stuck(peer, local int64, now time.Time, limit time.Duration) bool {
	switch {
	case peer >= local:
		*s = stall{}
	case s.since.IsZero() || peer > s.at:
		*s = stall{at: peer, since: now}
	default:
		return now.Sub(s.since) > limit
	}
	return false
}

// held is the clock of a condition: since is when it last became true, zero
// while it is false.
type held struct{ since time.Time }

// set records whether the condition holds, starting the clock at start when
// it becomes true, and reports whether it just did.
func (h *held) set(on bool, start time.Time) (began bool) {
	switch {
	case !on:
		h.since = time.Time{}
	case h.since.IsZero():
		h.since = start
		return true
	}
	return false
}

func (h held) on() bool { return !h.since.IsZero() }

// age is how long the condition has held at now, zero while it does not.
func (h held) age(now time.Time) time.Duration {
	if !h.on() {
		return 0
	}
	return now.Sub(h.since)
}

// detectorState is what the failure detectors know about the current peer.
// It belongs to the pair: pair resets it whole, so a rejoined peer is judged
// from scratch and no clock, count or once-per-peer note carries over from
// the peer before.
type detectorState struct {
	// Gateway-ping arbitration (§4.3), engaged while the IP link is down.
	myPingValid   bool
	myPingOK      bool
	peerPingFails int
	ipDown        held

	// Asymmetric-partition criterion (gray-failure suite): the peer's
	// latest PingValid as carried by any heartbeat, and how long the
	// asymmetry pattern has been observed.
	peerPingValid bool
	asym          held

	// localAppFailed is the local watchdog's verdict, carried in every
	// heartbeat.
	localAppFailed bool

	// The leaky-bucket scorer and the peer heartbeat-cadence drift
	// estimator (suspicion.go).
	susp         suspicionState
	hbLastIP     time.Time
	hbEWMA       float64
	hbSamples    int
	hbDriftNoted bool
}

// convict is how a periodic criterion declares the peer failed. evidence is
// the symptom it clocked since since: unless an earlier symptom already
// opened it, the detection span opens with it, backdated, so the span covers
// the whole phase and not just the verdict instant. A criterion whose
// evidence is already on record (the IP link's going down, the pattern's
// first sighting, the bucket's own span) passes none. It returns true for
// the detector to return.
func (n *Node) convict(since time.Time, evidence, reason string) bool {
	if evidence != "" {
		n.noteEvidenceSince(since, "%s", evidence)
	}
	n.declarePeerFailed(reason)
	return true
}

// noteEvidence opens the detection span at the first sign of peer trouble.
// It is an auto span: if the suspicion dissolves (the link comes back, the
// lag clears) it is simply finalized at its last recorded activity instead
// of being a leak.
func (n *Node) noteEvidence(format string, args ...any) {
	n.noteEvidenceSince(time.Time{}, format, args...)
}

// noteEvidenceSince opens the detection span backdated to when the symptom
// actually began: a detector that fires only after a lag has persisted, or
// after heartbeats have been silent for the timeout, knows its phase
// started at the recorded watermark, and the span should cover it all.
func (n *Node) noteEvidenceSince(start time.Time, format string, args ...any) {
	if n.detSpan != 0 {
		return
	}
	n.detSpan = n.tracer.OpenAutoSpanAt(start, trace.KindDetection, 0, n.comp, format, args...)
}

// dissolveEvidence closes the detection span without a verdict: the
// suspicion that opened it resolved itself (a transient lag cleared). The
// next piece of evidence opens a fresh span, so a real failure's detection
// phase starts at its own first symptom rather than at some earlier
// false alarm.
func (n *Node) dissolveEvidence(format string, args ...any) {
	if n.detSpan == 0 {
		return
	}
	n.tracer.EmitIn(n.detSpan, trace.KindGeneric, n.comp, 0, "suspicion dissolved: "+format, args...)
	n.tracer.CloseSpan(n.detSpan)
	n.detSpan = 0
}

// --- Link events and ping arbitration (§4.3) ---

func (n *Node) onLinkDown(link hb.LinkID) {
	if n.state != StateActive {
		return
	}
	// The symptom — peer silence on this link — began at the last
	// heartbeat heard, not at the timeout that noticed it.
	n.noteEvidenceSince(n.ex.LastReceived(link), "heartbeat link %v down", link)
	if n.ex.AllLinksDown() {
		n.declarePeerFailed("heartbeat lost on both links: peer crashed")
		return
	}
	if link == hb.LinkIP {
		n.ipDown.set(true, n.sim.Now())
		n.peerPingFails = 0
		n.startPinging()
	}
}

func (n *Node) onLinkUp(link hb.LinkID) {
	if n.state == StateActive && !n.ex.AnyLinkDown() {
		n.dissolveEvidence("heartbeat link %v back up", link)
	}
	if link == hb.LinkIP {
		n.ipDown, n.asym = held{}, held{}
		n.stopPinging()
		n.myPingValid = false
		n.peerPingFails = 0
		for _, rc := range n.conns {
			rc.nicBaselineSet = false // the next outage takes its own
		}
	}
}

func (n *Node) startPinging() {
	if n.pingTicker != nil || n.cfg.GatewayAddr.IsZero() {
		return
	}
	n.pingTicker = n.clock.NewTicker(pingInterval, func() {
		err := n.host.Netstack().Ping(n.cfg.GatewayAddr, pingTimeout, func(ok bool, _ time.Duration) {
			n.myPingValid, n.myPingOK = true, ok
		})
		if err != nil {
			n.myPingValid, n.myPingOK = true, false
		}
	})
}

func (n *Node) stopPinging() {
	if n.pingTicker != nil {
		n.pingTicker.Stop()
		n.pingTicker = nil
	}
}

// --- Periodic failure detectors ---

func (n *Node) runDetectors() {
	if n.state != StateActive {
		return
	}
	now := n.sim.Now()
	var worstStaleness time.Duration
	for _, k := range n.sortedKeys() {
		rc := n.conns[k]
		if rc.conn.State() == tcp.StateClosed {
			n.dropConn(k)
			continue
		}
		if !rc.replicated || !rc.peerValid || !rc.peerEstab {
			continue
		}
		if n.detectAppLag(rc, now) {
			return
		}
		if n.ipDown.on() && n.detectNICLag(rc, now) {
			return
		}
		worstStaleness = max(worstStaleness, n.respStaleness(rc, now))
	}
	if n.detectAsymLink(now) {
		return
	}
	n.scoreSuspicion(now, worstStaleness)
}

// detectAsymLink closes the asymmetric-partition gray gap: when the
// peer's transmit path on the LAN dies while its receive path survives,
// we see the IP heartbeat go silent, but the peer — still receiving our
// heartbeats — considers its IP link healthy and never starts pinging.
// Ping arbitration therefore never engages (PingValid stays false at the
// peer), and the client-data criteria stay quiet too because the whole
// workload stalls symmetrically. The tell is the combination: IP silence
// past nicLagGrace, the gateway answering our own pings, and a peer
// fresh on serial that is not arbitrating. Held for asymHold so momentary
// coincidences (the peer's first ping result is still in flight after a
// full NIC death, say) cannot kill a healthy server.
func (n *Node) detectAsymLink(now time.Time) bool {
	lastSerial := n.ex.LastReceived(hb.LinkSerial)
	matching := n.ipDown.age(now) >= nicLagGrace &&
		n.myPingValid && n.myPingOK &&
		!n.peerPingValid &&
		!lastSerial.IsZero() && now.Sub(lastSerial) <= hb.Timeout(n.cfg.HBPeriod)
	if n.asym.set(matching, now) {
		n.noteEvidence("IP heartbeat silent %v, gateway answers local pings, peer fresh on serial but not arbitrating: suspecting asymmetric partition",
			n.ipDown.age(now).Round(time.Millisecond))
		return false
	}
	if n.asym.age(now) < asymHold {
		return false
	}
	return n.convict(time.Time{}, "", fmt.Sprintf(
		"asymmetric partition: peer-to-us LAN path dead %v while local gateway pings succeed and the peer (fresh on serial) sees no outage",
		n.ipDown.age(now).Round(time.Millisecond)))
}

// detectAppLag implements §4.2.1: the peer's application has stopped
// reading or writing while ours progresses.
func (n *Node) detectAppLag(rc *repConn, now time.Time) bool {
	// Criterion 2: a particular byte stays unprocessed by the peer for
	// AppMaxLagTime. Each stream's stall clock watches the oldest byte the
	// peer is missing; peer progress moves it and restarts the clock.
	if n.appStalled(&rc.appW, "write", rc.peerAppW, rc.conn.LastAppByteWritten(), now) ||
		n.appStalled(&rc.appR, "read", rc.peerAppR, rc.conn.LastAppByteRead(), now) {
		return true
	}
	// Criterion 1: lag exceeding AppMaxLagBytes sustained for
	// appLagByteHold, judged on the lag each peer report showed when it
	// was applied (applyPeerConnState). One report may catch the peer
	// mid-burst, so only the *held* lag is evidence.
	lag := rc.peerAppLag
	if rc.byteLag.set(lag > n.cfg.AppMaxLagBytes, now); rc.byteLag.age(now) <= appLagByteHold {
		return false
	}
	return n.convict(rc.byteLag.since, fmt.Sprintf("peer app lagging by %d bytes", lag),
		fmt.Sprintf("peer app lags by %d bytes (> %d) for >%v", lag, n.cfg.AppMaxLagBytes, appLagByteHold))
}

// appStalled is criterion 2 on one stream: what names it ("write" or
// "read"), s is its clock.
func (n *Node) appStalled(s *stall, what string, peer, local int64, now time.Time) bool {
	return s.stuck(peer, local, now, n.cfg.AppMaxLagTime) &&
		n.convict(s.since, fmt.Sprintf("peer app %s progress stalled at %d", what, peer),
			fmt.Sprintf("peer app %s position stuck at %d for >%v (local %d)", what, peer, n.cfg.AppMaxLagTime, local))
}

// detectNICLag implements the client-data criterion of §4.3: with the IP
// heartbeat down, the server that stops receiving client bytes (or client
// acks) has the dead NIC. Two safeguards keep transients from killing a
// healthy peer: the criterion only engages once the IP link has been down
// for a grace period, and the byte threshold applies to lag *accrued
// since* the link went down (a replica that is legitimately behind — e.g.
// mid-reconstruction — has a large absolute asymmetry that means nothing).
// The link's going down is the evidence on record.
func (n *Node) detectNICLag(rc *repConn, now time.Time) bool {
	if n.ipDown.age(now) < nicLagGrace {
		rc.nicBaselineSet = false
		return false
	}
	c := rc.conn
	localPos := c.LastByteReceived() + c.LastAckReceived()
	peerPos := rc.peerLBR + rc.peerLAR
	if !rc.nicBaselineSet {
		rc.nicBaselineSet, rc.nicBaseline, rc.nic = true, localPos-peerPos, stall{}
	}
	if growth := localPos - peerPos - rc.nicBaseline; peerPos < localPos && growth > nicLagBytes {
		return n.convict(time.Time{}, "", fmt.Sprintf(
			"IP heartbeat down and peer fell %d further bytes behind on the client stream: peer NIC dead", growth))
	}
	return rc.nic.stuck(peerPos, localPos, now, nicLagTime) &&
		n.convict(time.Time{}, "", "IP heartbeat down and peer client stream stalled: peer NIC dead")
}
