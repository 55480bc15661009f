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
	// Gateway-ping arbitration (§4.3), engaged while the IP link is down:
	// how long it has been, our latest ping result (myPingValid, myPingOK)
	// and how many peer reports in a row blamed the peer's NIC
	// (peerPingFails).
	ipDown held

	// Asymmetric-partition criterion (gray-failure suite): how long the
	// asymmetry pattern has been observed, and the peer's latest PingValid
	// as carried by any heartbeat (peerPingValid).
	asym held

	// The leaky-bucket scorer, whether the open detection span is its own
	// (suspSpan), and the peer heartbeat-cadence drift estimator
	// (suspicion.go), noted once per peer (hbDriftNoted).
	susp      suspicionState
	hbLastIP  time.Time
	hbEWMA    float64
	hbSamples int

	// localAppFailed is the witness majority's verdict against the local
	// application, carried in every heartbeat. The small fields share one
	// word, which keeps a Node in its allocation size class.
	peerPingFails                          uint8
	myPingValid, myPingOK, peerPingValid   bool
	localAppFailed, suspSpan, hbDriftNoted bool
}

// Criterion names the rule that convicted a peer: one row of criteria.
type Criterion uint8

// The criteria, in the order of the criteria table. CriterionNone is no
// verdict.
const (
	CriterionNone Criterion = iota
	CriterionHBLost
	CriterionSelfReport
	CriterionGatewayPing
	CriterionByteLag
	CriterionAppStall
	CriterionNICLag
	CriterionNICStall
	CriterionFINTimeout
	CriterionMajorityClose
	CriterionMajorityFIN
	CriterionAsymPartition
	CriterionSuspicion
)

// criteria is every rule that convicts a peer: its stable name, the paper
// section it implements ("gray" for the gray-failure suite's additions), and
// the sentence its verdict renders, a format over the figures the verdict
// was reached on.
var criteria = [...]struct{ name, section, sentence string }{
	CriterionNone:          {"none", "", ""},
	CriterionHBLost:        {"hb-lost", "§3", "heartbeat lost on both links: peer crashed"},
	CriterionSelfReport:    {"self-report", "§4.2.2", "peer watchdog reported application failure"},
	CriterionGatewayPing:   {"gateway-ping", "§4.3", "gateway pings fail at peer but succeed locally: peer NIC dead"},
	CriterionByteLag:       {"byte-lag", "§4.2.1", "peer app lags by %d bytes (> %d) for >%v"},
	CriterionAppStall:      {"app-stall", "§4.2.1", "peer app %s position stuck at %d for >%v (local %d)"},
	CriterionNICLag:        {"nic-lag", "§4.3", "IP heartbeat down and peer fell %d further bytes behind on the client stream: peer NIC dead"},
	CriterionNICStall:      {"nic-stall", "§4.3", "IP heartbeat down and peer client stream stalled: peer NIC dead"},
	CriterionFINTimeout:    {"fin-timeout", "§4.2.2", "backup generated FIN; local application did not within MaxDelayFIN"},
	CriterionMajorityClose: {"majority-close", "§4.2.2", "majority: witness corroborates the close; backup application failed"},
	CriterionMajorityFIN:   {"majority-fin", "§4.2.2", "majority: backup FIN not corroborated by primary or witness"},
	CriterionAsymPartition: {"asym-partition", "gray", "asymmetric partition: peer-to-us LAN path dead %v while local gateway pings succeed and the peer (fresh on serial) sees no outage"},
	CriterionSuspicion:     {"suspicion", "gray", "suspicion %.2f >= %.2f: peer response latency past SLO %v (staleness %v, link bonus %.1f)"},
}

// String is the criterion's stable name.
func (c Criterion) String() string { return criteria[c].name }

// Section is the paper section the criterion implements, "gray" for the
// gray-failure suite's, "" for none.
func (c Criterion) Section() string { return criteria[c].section }

// Verdict is one conviction of the peer: the criterion that fired, when its
// symptom began and the evidence clocked since then (both zero when the
// evidence is already on record: the link's going down, the pattern's first
// sighting, the bucket's own span), and the criterion's sentence rendered
// over the figures it was reached on.
type Verdict struct {
	Criterion Criterion
	Since     time.Time
	Evidence  string
	sentence  string
}

// verdict renders criterion c's sentence over figures; a sentence without
// figures is the table's own string.
func (c Criterion) verdict(figures ...any) Verdict {
	v := Verdict{Criterion: c, sentence: criteria[c].sentence}
	if len(figures) > 0 {
		v.sentence = fmt.Sprintf(v.sentence, figures...)
	}
	return v
}

// clocked is the verdict with the symptom it clocked since since.
func (v Verdict) clocked(since time.Time, evidence string) Verdict {
	v.Since, v.Evidence = since, evidence
	return v
}

// String is the verdict's rendered sentence, "" for no verdict.
func (v Verdict) String() string { return v.sentence }

// convict is the one way a node declares its peer failed, on verdict v.
// Unless an earlier symptom already opened it, the detection span opens
// with v's evidence, backdated to v.Since, so the span covers the whole
// phase and not just the verdict instant. Then the node takes the
// role-appropriate recovery action: the backup takes over the client
// connections, the primary goes non-fault-tolerant, both powering the peer
// down first (STONITH). A witness only records what it saw. It returns true
// for a detector to return.
func (n *Node) convict(v Verdict) bool {
	if v.Evidence != "" {
		n.noteEvidenceSince(v.Since, "%s", v.Evidence)
	}
	if n.state != StateActive {
		return true
	}
	if n.cfg.Witness {
		// A witness observes but never acts: no STONITH, no takeover.
		n.milestone(n.mSuspects, n.tracer.Ambient(), trace.KindSuspect, "witness observed peer failure (no action): %s", v.sentence)
		return true
	}
	n.verdict = v
	// Detection is declared over: the suspect verdict and the STONITH
	// action both belong to the detection span, which ends here. When the
	// declaration came without prior evidence (e.g. the peer flagged
	// its own application failed over a live heartbeat link), the span is
	// zero-length by construction.
	n.noteEvidence("%s", v.sentence)
	n.milestone(n.mSuspects, n.detSpan, trace.KindSuspect, "peer declared failed: %s", v.sentence)
	if n.peerPower != nil {
		n.tracer.EmitIn(n.detSpan, trace.KindShutdownPeer, n.comp, 0, "powering peer down")
		n.peerPower.Off()
	}
	n.tracer.CloseSpan(n.detSpan)
	if n.role == RoleBackup {
		n.takeover()
	} else {
		n.enterNonFT()
	}
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
		n.convict(CriterionHBLost.verdict())
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
		for _, rc := range n.ordered {
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
	walk := n.snapshot()
	defer n.release(walk)
	for _, rc := range walk {
		if rc.conn.State() == tcp.StateClosed {
			n.dropConn(rc.conn.ID())
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
	return n.convict(CriterionAsymPartition.verdict(n.ipDown.age(now).Round(time.Millisecond)))
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
	return n.convict(CriterionByteLag.verdict(lag, n.cfg.AppMaxLagBytes, appLagByteHold).
		clocked(rc.byteLag.since, fmt.Sprintf("peer app lagging by %d bytes", lag)))
}

// appStalled is criterion 2 on one stream: what names it ("write" or
// "read"), s is its clock.
func (n *Node) appStalled(s *stall, what string, peer, local int64, now time.Time) bool {
	return s.stuck(peer, local, now, n.cfg.AppMaxLagTime) &&
		n.convict(CriterionAppStall.verdict(what, peer, n.cfg.AppMaxLagTime, local).
			clocked(s.since, fmt.Sprintf("peer app %s progress stalled at %d", what, peer)))
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
		return n.convict(CriterionNICLag.verdict(growth))
	}
	return rc.nic.stuck(peerPos, localPos, now, nicLagTime) &&
		n.convict(CriterionNICStall.verdict())
}
