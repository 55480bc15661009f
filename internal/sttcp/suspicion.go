package sttcp

import (
	"time"

	"repro/internal/hb"
	"repro/internal/trace"
)

// Gray-failure suspicion scorer.
//
// The crisp Table 1 detectors answer crisp failures: links that die, apps
// that stop. A CPU-starved peer defeats them all — its heartbeats flow on
// time, its application positions keep (slowly) advancing, so no
// watermark ever sticks — yet clients see response times far past any
// SLO. The scorer closes that gap with *response-latency staleness*: each
// replica knows when its own application first passed a given write
// offset, so the age of the peer's reported write position against that
// local history is a direct measure of how far behind real time the
// peer's application is running. Staleness past the SLO accrues
// suspicion in a leaky bucket; healthy responses drain it three times
// slower than violations fill it, so intermittent per-round violations
// (the shape a starved echo workload produces) still converge on a
// verdict while one-off retransmission stalls decay harmlessly. A single
// silent heartbeat link adds a fixed bonus: ambiguity on two axes at
// once is worth more than either alone.

// respRingSize bounds the per-connection history of local write-progress
// samples. At the default detector cadence (HBPeriod/2) the ring covers
// several seconds — beyond that the crisp AppMaxLagTime detector owns
// the verdict anyway.
const respRingSize = 32

// respSLO is the response-latency objective: peer write progress trailing
// ours by more than this, as of the report that carried it, counts as a
// violation — far below the crisp AppMaxLagTime detector. respHold is how
// much sustained violation alone reaches the threshold.
const (
	respSLO  = 400 * time.Millisecond
	respHold = time.Second
)

// suspicionThreshold is the score at which the peer is declared failed.
const suspicionThreshold = 1.0

// linkSilenceBonus is the suspicion contributed by exactly one silent
// heartbeat link (both silent is the crisp peer-crashed verdict).
const linkSilenceBonus = 0.5

// inputLagGrace is how long the peer's receive offset must trail the
// local one before the scorer treats the peer as input-starved. The
// offset is heartbeat-reported, so it always trails by up to a heartbeat
// period during normal operation; only a gap that outlives that
// reporting lag means the peer genuinely hasn't received bytes we have.
const inputLagGrace = 300 * time.Millisecond

type respSample struct {
	off int64
	at  time.Time
}

// respRing is a fixed circular buffer of (write offset, first reached
// at) samples, oldest first.
type respRing struct {
	buf  [respRingSize]respSample
	head int // index of the oldest sample
	n    int
}

// push appends a sample, evicting the oldest once the ring is full.
func (r *respRing) push(off int64, at time.Time) {
	r.buf[(r.head+r.n)%respRingSize] = respSample{off: off, at: at}
	if r.n < respRingSize {
		r.n++
	} else {
		r.head = (r.head + 1) % respRingSize
	}
}

// since is how long before reported — the arrival of the peer report being
// judged — the local application first reached stream offset off: the age
// of the oldest sample at or past it, but no longer than since the peer's
// input recovered at okSince (lateness accrued while the peer was missing
// its input is not the peer's). Zero if no sample reached off. A sample or
// okSince after reported is news the report predates, so it reads as zero
// too.
func (r *respRing) since(off int64, reported, okSince time.Time) time.Duration {
	for i := 0; i < r.n; i++ {
		if s := &r.buf[(r.head+i)%respRingSize]; s.off >= off {
			d := reported.Sub(s.at)
			if !okSince.IsZero() {
				d = min(d, reported.Sub(okSince))
			}
			return max(d, 0)
		}
	}
	return 0
}

// suspicionState is the node-wide leaky bucket.
type suspicionState struct {
	score     float64
	lastTick  time.Time
	violation held // staleness past the SLO, backdated to when the peer fell behind
}

// respStaleness samples local write progress for rc and returns the
// worse of two lateness measures, each judged as of the peer's latest
// report. The *instantaneous* staleness is how long before that report the
// local application first passed the write position it carried — zero
// when the peer was caught up. That alone is not enough:
// a request/response workload self-throttles against a slow peer (the
// client withholds round N+1 until the starved peer answers round N), so
// the peer catches up briefly every round and an instantaneous measure
// resets just before each violation matures. The *per-advance lag* fixes
// that: every time the peer's reported position moves, record how late
// it reached that position against local history, and hold the verdict
// material until the next advance — a starved peer re-proves its
// lateness with every response it completes. The sticky lag expires once
// the peer has fully caught up and stayed idle past the SLO (the last
// response's lateness stops being evidence when the conversation is
// over). Allocation-free: the ring is embedded in the connection state.
func (n *Node) respStaleness(rc *repConn, now time.Time) time.Duration {
	localW := rc.conn.LastAppByteWritten()
	r := &rc.resp
	if r.n == 0 || localW > r.buf[(r.head+r.n-1)%respRingSize].off {
		r.push(localW, now)
	}
	// Input gate: a peer that hasn't *received* the bytes we have cannot
	// be blamed for not answering them. A tap sees client segments the
	// peer's own (corrupted, lossy) link dropped, so the peer's write
	// position legitimately freezes until the client retransmits — that
	// is a delivery problem, owned by TCP and the crisp detectors, not
	// peer slowness. A genuinely starved peer is different: its network
	// stack still ACKs on time (only application scheduling is starved),
	// so its receive offset keeps up and the gate stays open.
	if rc.inputLag.set(rc.peerLBR < rc.conn.LastByteReceived(), now); rc.inputLag.on() {
		rc.inputStarved = rc.inputLag.age(now) >= inputLagGrace
	} else if rc.inputStarved {
		rc.inputStarved, rc.inputOKSince = false, now
	}
	if rc.inputStarved {
		return 0
	}
	// Like against like: how old the report has grown since is the
	// liveness timeout's to judge, not the peer application's — at a 1 s
	// heartbeat a healthy peer's report is up to a second old.
	reported := rc.peerAt
	if rc.peerAppW > rc.scoredAppW {
		rc.scoredAppW = rc.peerAppW
		rc.respLag = r.since(rc.peerAppW, reported, rc.inputOKSince)
		rc.respLagAt = now
	}
	if rc.peerAppW >= localW && !rc.respLagAt.IsZero() &&
		now.Sub(rc.respLagAt) > respSLO {
		rc.respLag = 0
	}
	var stale time.Duration
	if rc.peerAppW < localW {
		// The oldest sample still above the peer's position marks when
		// we first got ahead of where the peer reported. If history has
		// been evicted past that point the oldest sample is a
		// (conservative) lower bound.
		stale = r.since(rc.peerAppW+1, reported, rc.inputOKSince)
	}
	return max(rc.respLag, stale)
}

// scoreSuspicion advances the leaky bucket with the worst staleness seen
// across connections this tick, manages the backdated evidence span, and
// declares the peer failed when the combined score crosses the
// threshold.
func (n *Node) scoreSuspicion(now time.Time, worst time.Duration) {
	s := &n.susp
	var dt time.Duration
	if !s.lastTick.IsZero() {
		dt = now.Sub(s.lastTick)
	}
	s.lastTick = now

	// The symptom began when the peer fell behind, not when the detector
	// noticed: a violation is backdated by the staleness itself.
	if s.violation.set(worst > respSLO, now.Add(-worst)); s.violation.on() {
		s.score += float64(dt) / float64(respHold)
		if lim := suspicionThreshold * 1.2; s.score > lim {
			s.score = lim
		}
	} else {
		s.score -= float64(dt) / float64(3*respHold)
		if s.score < 0 {
			s.score = 0
		}
	}

	bonus := 0.0
	if n.ex.AnyLinkDown() && !n.ex.AllLinksDown() {
		bonus = linkSilenceBonus
		// A "silent" serial link that is still delivering CRC-rejected
		// frames is a noisy cable, not a dead peer: frames keep arriving,
		// they just fail the check sequence. Checksum noise alone must
		// never tip a verdict (it is the one fingerprint every gray noise
		// class leaves), so fresh rejects suppress the bonus.
		if n.ex.LinkDown(hb.LinkSerial) && !n.ex.LinkDown(hb.LinkIP) && n.serialNoisy(now) {
			bonus = 0
		}
	}
	total := s.score + bonus
	n.mSuspicion.Set(int64(total * 1000))

	// Evidence span lifecycle: open (backdated) at the first violation,
	// dissolve when the bucket drains without a verdict. Only a span this
	// scorer opened is dissolved here.
	if s.violation.on() && s.score > 0 && n.detSpan == 0 {
		n.noteEvidenceSince(s.violation.since, "peer response latency past SLO (staleness %v > %v)", worst, respSLO)
		n.suspSpan = true
	}
	if n.suspSpan && n.detSpan != 0 {
		if s.score == 0 {
			n.dissolveEvidence("response latency back under SLO")
			n.suspSpan = false
		} else if s.violation.on() {
			n.tracer.EmitIn(n.detSpan, trace.KindGeneric, n.comp, int64(total*1000),
				"suspicion %.2f (staleness %v)", total, worst)
		}
	}

	if total >= suspicionThreshold {
		n.convict(CriterionSuspicion.verdict(total, suspicionThreshold, respSLO, worst, bonus))
	}
}

// serialNoisy reports whether the local serial port has rejected a frame
// on CRC within the last heartbeat timeout — i.e. the cable is carrying
// (damaged) traffic right now, so its heartbeat silence indicts the line
// discipline, not the peer.
func (n *Node) serialNoisy(now time.Time) bool {
	p := n.host.Serial()
	if p == nil {
		return false
	}
	if p.CRCErrors > n.lastSerialCRC {
		n.lastSerialCRC = p.CRCErrors
		n.lastSerialCRCAt = now
	}
	return !n.lastSerialCRCAt.IsZero() && now.Sub(n.lastSerialCRCAt) <= hb.Timeout(n.cfg.HBPeriod)
}

// --- Heartbeat-rate drift (clock skew evidence) ---

// hbDriftAlpha is the EWMA weight for inter-arrival smoothing, and
// hbDriftMinSamples how many arrivals must be seen before the estimate
// is trusted (startup transients average out). Only intervals inside
// [period/2, 2·period) feed the estimate: anything shorter is an
// event-triggered SendNow burst, anything at 2·period or beyond is one
// or more lost heartbeats — both are cadence outliers that would swamp
// the small, persistent shift an oscillator skew produces.
const (
	hbDriftAlpha       = 0.15
	hbDriftMinSamples  = 20
	hbDriftNotePermill = 80 // note drift beyond 8%
)

// noteHBArrival feeds the peer-heartbeat-rate drift estimator: a peer
// whose timer oscillator runs fast or slow delivers IP heartbeats at a
// visibly skewed cadence long before anything times out. The estimate is
// exported as a permille gauge and traced once per run when it crosses
// the note threshold — evidence, not a verdict: skew within heartbeat
// tolerance must never cause a takeover.
func (n *Node) noteHBArrival(link hb.LinkID) {
	if link != hb.LinkIP {
		return
	}
	now := n.sim.Now()
	last := n.hbLastIP
	n.hbLastIP = now
	if last.IsZero() {
		return
	}
	iv := float64(now.Sub(last))
	period := float64(n.cfg.HBPeriod)
	if iv < period/2 || iv >= 2*period {
		return // SendNow burst or lost heartbeat(s); not a cadence sample
	}
	if n.hbEWMA == 0 {
		n.hbEWMA = iv
	} else {
		n.hbEWMA += hbDriftAlpha * (iv - n.hbEWMA)
	}
	n.hbSamples++
	if n.hbSamples < hbDriftMinSamples {
		return
	}
	permille := int64((n.hbEWMA/period - 1) * 1000)
	n.mHBDrift.Set(permille)
	if !n.hbDriftNoted && (permille >= hbDriftNotePermill || permille <= -hbDriftNotePermill) {
		n.hbDriftNoted = true
		n.drifts++
		n.tracer.EmitValue(trace.KindGeneric, n.comp, permille,
			"peer heartbeat cadence drifting %+d permille from nominal: clock-rate skew suspected", permille)
	}
}
