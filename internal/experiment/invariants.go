package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/hb"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// Violation is one broken invariant: its name in the registry (see
// InvariantNames) and what was observed.
type Violation struct {
	Invariant, Detail string
}

// Error renders the violation as "invariant: detail", a line of Plan.Run's
// error.
func (v Violation) Error() string { return v.Invariant + ": " + v.Detail }

// InvariantNames lists the invariant registry, which Plan.Run judges every
// run by (a plain plan's, which has no node, by client-integrity alone), in
// evaluation order:
//
//   - single-transmitter: at every node state change, at most one live
//     node believes it owns client output (an active or non-FT primary, or
//     a taken-over backup) — what STONITH-before-takeover guarantees.
//   - backup-silence: a node holding the backup role sends zero TCP
//     segments (output suppression), per role era, from the host's live
//     tcp.segments_sent counter.
//   - dead-host-silence: from the end of a host's crash step to its
//     reboot or the end of the run, no counter under a <host>/… component
//     moves (segments sent and received, heartbeats sent and received, …)
//     and the host traces no event from such a component — a powered-off
//     machine runs nothing. The counters hold it with trace detail off.
//   - client-integrity: every client finishes its workload with no error
//     and no pattern-verification failure — the paper's claim.
//   - takeover-latency: every takeover latency is at most hb.Timeout + the
//     period + 600 ms (detection, liveness-check quantisation, and the
//     worst benign inbound-drop window a chaos schedule stacks on top).
//   - span-integrity: at end of run every takeover span has a suspect on
//     itself or an ancestor, no non-auto span is open, and the recorder
//     saw no open/close error.
//   - gray-quiescence: a run that injected nothing a verdict answers ends
//     as it began (Run.quiescence): one whose plan has no fault, or whose
//     faults that struck were gray noise — corruption or clock skew — and
//     benign drop, loss or delay windows (Run.quiet).
//   - gray-detection-bound: every verdict-class gray fault that struck — a
//     starve of an echo service past the response SLO, an asymmetric
//     partition — is answered by a takeover starting by its deadline.
//   - gray-evidence: every gray-noise fault that struck left its
//     fingerprint — a corrupting window advanced a checksum or CRC reject
//     counter, a large clock skew tripped the peer's cadence-drift note.
//   - flap-containment: a flapping interface may trip a crisp detector
//     once, but STONITH must prevent oscillation: at most one takeover.
//
// The last three read the record of the faults that struck
// (Testbed.strikes).
func InvariantNames() []string {
	return []string{"single-transmitter", "backup-silence", "dead-host-silence",
		"client-integrity", "takeover-latency", "span-integrity", "gray-quiescence",
		"gray-detection-bound", "gray-evidence", "flap-containment"}
}

// transmitterEntitled reports whether a node in (role, state) on a live
// host is entitled to transmit to clients: an active or non-FT primary,
// or a backup that has taken over.
func transmitterEntitled(role sttcp.Role, state sttcp.NodeState) bool {
	return state == sttcp.StateTakenOver ||
		(role == sttcp.RolePrimary && (state == sttcp.StateActive || state == sttcp.StateNonFT))
}

// singleTransmitterViolation judges the transmitter set observed at a
// node state change: more than one entitled node means split brain.
// cause names the transition that triggered the check.
func singleTransmitterViolation(elapsed time.Duration, cause string, who []string) (Violation, bool) {
	return Violation{Invariant: "single-transmitter", Detail: fmt.Sprintf("at %v (after %s): %s all believe they own client output",
		elapsed, cause, strings.Join(who, " and "))}, len(who) > 1
}

// backupSilenceViolation judges one closed silence era: segments is the
// era's delta of the node's live tcp.segments_sent counter, which must
// be zero while the backup role is held.
func backupSilenceViolation(name string, segments int64, openedAt, closedAt time.Duration) (Violation, bool) {
	return Violation{Invariant: "backup-silence", Detail: fmt.Sprintf("%s sent %d TCP segments while holding the backup role (era %v–%v)",
		name, segments, openedAt, closedAt)}, segments > 0
}

// deadHostSilenceViolation judges one closed dead-host era: moved names
// each counter under a <name>/… component that moved in the era, with its
// delta, and events are the trace recorded meanwhile, of which none may
// come from a <name>/… component. A link-drop record is the fault
// injector's, written under the NIC it cuts off: the switch port drops,
// not the host.
func deadHostSilenceViolation(name string, moved []string, events []trace.Event, openedAt, closedAt time.Duration) (Violation, bool) {
	var own []trace.Event
	for _, e := range events {
		if e.Kind != trace.KindLinkDrop && strings.HasPrefix(e.Component, name+"/") {
			own = append(own, e)
		}
	}
	detail := fmt.Sprintf("%s moved %d counters and traced %d events while crashed (era %v–%v)",
		name, len(moved), len(own), openedAt, closedAt)
	if len(moved) > 0 {
		detail += ": " + strings.Join(moved, ", ")
	}
	if len(own) > 0 {
		e := own[0]
		detail += fmt.Sprintf(", the first %v from %s at %v", e.Kind, e.Component, e.Time.Sub(sim.Epoch))
	}
	return Violation{Invariant: "dead-host-silence", Detail: detail}, len(moved) > 0 || len(own) > 0
}

// silenceEra is one interval during which a host must stay silent, judged
// on the live counters it watches, each against its value as the era
// opened (the registry dedupes a counter, so it survives a reboot). A
// backup-silence era is a node's hold of the backup role, on the
// tcp.segments_sent counter of its stack: it closes at the transition to
// taken-over — signalled before anything is unsuppressed — or stopped. A
// dead-host-silence era runs from the end of the host's crash step to its
// reboot, on every counter under a <host>/… component and on the trace
// from mark, its length then. Either closes at the end of the run.
type silenceEra struct {
	node               *sttcp.Node   // backup-silence
	host               *cluster.Host // dead-host-silence
	ctrs               []metrics.InstrumentRef
	base               []int64
	mark               int
	openedAt, closedAt time.Duration
	open               bool
}

// openEra starts e on the counters watched picks by component and name.
func (run *Run) openEra(e *silenceEra, watched func(component, name string) bool) {
	tb := run.Testbed
	for _, r := range tb.Metrics.Instruments() {
		if r.Counter != nil && watched(r.Component, r.Name) {
			e.ctrs, e.base = append(e.ctrs, r), append(e.base, r.Counter.Value())
		}
	}
	e.mark, e.openedAt, e.open = tb.Tracer.Len(), tb.Sim.Elapsed(), true
	run.eras = append(run.eras, e)
}

// watch puts a node the run started under the live invariants. A hook
// the node already has (a judge's Watch set it) keeps running after the
// registry's.
func (run *Run) watch(n *sttcp.Node) {
	run.nodes = append(run.nodes, n)
	if n.Role() == sttcp.RoleBackup && n.State() == sttcp.StateActive {
		stack := n.Host().Name() + "/tcp"
		run.openEra(&silenceEra{node: n}, func(c, name string) bool { return c == stack && name == "tcp.segments_sent" })
	}
	prev := n.OnStateChange
	n.OnStateChange = func(s sttcp.NodeState) {
		run.onStateChange(n, s)
		if prev != nil {
			prev(s)
		}
	}
}

func (run *Run) onStateChange(n *sttcp.Node, s sttcp.NodeState) {
	// A node leaving the backup role — to take over (it will unsuppress
	// and retransmit right after this hook) or because it died — ends
	// its silence obligation; check it now.
	if s == sttcp.StateTakenOver || s == sttcp.StateStopped {
		run.closeEras(func(e *silenceEra) bool { return e.node == n })
	}
	// The live nodes entitled to transmit to clients: never more than one.
	var who []string
	for _, n := range run.nodes {
		if !n.Host().Crashed() && transmitterEntitled(n.Role(), n.State()) {
			who = append(who, fmt.Sprintf("%s(%v/%v)", n.Host().Name(), n.Role(), n.State()))
		}
	}
	cause := fmt.Sprintf("%v became %v", n.Host().Name(), s)
	if v, bad := singleTransmitterViolation(run.Testbed.Sim.Elapsed(), cause, who); bad {
		run.Violations = append(run.Violations, v)
	}
}

// hook puts a host under dead-host-silence. It is called once the host's
// software is in place, so the registry's crash hook runs after the
// software's own and the era opens once the crash step is over.
func (run *Run) hook(h *cluster.Host) {
	h.OnCrash(func() {
		run.openEra(&silenceEra{host: h}, func(c, _ string) bool { return strings.HasPrefix(c, h.Name()+"/") })
	})
}

// rebooted ends the dead-host era of a host that booted again.
func (run *Run) rebooted(h *cluster.Host) {
	run.closeEras(func(e *silenceEra) bool { return e.host == h })
}

// booted puts a rebooted host back under the invariants once its software
// is in place: fresh, the node a rejoin started on it (nil for none), and
// the host, whose crash hooks a reboot forgot.
func (run *Run) booted(h *cluster.Host, fresh *sttcp.Node) {
	if fresh != nil {
		run.watch(fresh)
	}
	run.hook(h)
}

// closeEras closes and judges the open eras that match.
func (run *Run) closeEras(match func(*silenceEra) bool) {
	tb := run.Testbed
	for _, e := range run.eras {
		if !e.open || !match(e) {
			continue
		}
		e.open, e.closedAt = false, tb.Sim.Elapsed()
		var moved []string
		var sent int64 // a backup-silence era watches one counter
		for i, c := range e.ctrs {
			if d := c.Counter.Value() - e.base[i]; d != 0 {
				moved, sent = append(moved, fmt.Sprintf("%s %s{%s} %+d", c.Component, c.Name, c.Labels, d)), sent+d
			}
		}
		var v Violation
		var bad bool
		if e.node != nil {
			v, bad = backupSilenceViolation(e.node.Host().Name(), sent, e.openedAt, e.closedAt)
		} else {
			v, bad = deadHostSilenceViolation(e.host.Name(), moved, tb.Tracer.Events()[e.mark:], e.openedAt, e.closedAt)
		}
		if bad {
			run.Violations = append(run.Violations, v)
		}
	}
}

// judge is Plan.Run's postcondition: it closes the silence eras still open,
// resolves the span layer (a node closes a still-pending retransmission
// wait, a fan-out span ends at its last activity; anything open after that
// leaked), then adds the end invariants' violations, when quiet
// gray-quiescence's, and the gray verdicts', to the live ones.
func (run *Run) judge() {
	if run.plan.Plain {
		run.Violations = append(run.Violations, run.clientIntegrity()...)
		return
	}
	run.closeEras(func(*silenceEra) bool { return true })
	for _, n := range run.nodes {
		n.FinishTrace()
	}
	run.Testbed.Tracer.FinalizeAutoSpans()
	period := run.nodes[0].Config().HBPeriod
	run.Violations = append(run.Violations, run.endInvariants(period)...)
	if run.quiet() {
		run.Violations = append(run.Violations, run.quiescence()...)
	}
	run.Violations = append(run.Violations, run.grayVerdicts(period)...)
}

// endInvariants evaluates the invariants checked once, over the finished
// run: client-integrity, takeover-latency against the heartbeat period of
// the pair the run started with, and span-integrity.
func (run *Run) endInvariants(period time.Duration) []Violation {
	tb, out := run.Testbed, run.clientIntegrity()
	bad := func(inv, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	// takeover-latency: detection must act within the heartbeat budget.
	bound := hb.Timeout(period) + period + 600*time.Millisecond
	for _, sm := range tb.Metrics.Snapshot().Find("sttcp.takeover_latency") {
		if sm.Type == "histogram" && sm.Count > 0 && sm.MaxDur > bound {
			bad("takeover-latency", "%s recorded takeover latency %v > bound %v",
				sm.Component, sm.MaxDur, bound)
		}
	}

	// span-integrity: the causal tree must be coherent. A takeover with
	// no suspect in its ancestry means the backup promoted itself
	// without a declared suspicion; an open non-auto span or a recorded
	// open/close error means leaked instrumentation.
	for _, sp := range tb.Tracer.FilterSpans(trace.KindTakeover) {
		if !tb.Tracer.CausallyLinked(sp.ID, trace.KindSuspect) {
			bad("span-integrity", "takeover span #%d (%s) has no causally-linked suspect ancestor",
				sp.ID, sp.Component)
		}
	}
	for _, sp := range tb.Tracer.OpenSpans() {
		bad("span-integrity", "span #%d (%v %s %q) left open at end of run",
			sp.ID, sp.Kind, sp.Component, sp.Message)
	}
	for _, e := range tb.Tracer.SpanErrors() {
		bad("span-integrity", "recorder error: %s", e)
	}
	return out
}

// clientIntegrity is the paper's claim: every client finishes, with every
// byte verified against the deterministic pattern.
func (run *Run) clientIntegrity() []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{Invariant: "client-integrity", Detail: fmt.Sprintf(format, args...)})
	}
	for _, cl := range run.Clients {
		done, verr, err := cl.Outcome()
		switch {
		case !done:
			bad("%s never finished (%s)", cl.Name(), cl.Progress())
		case err != nil:
			bad("%s failed: %s", cl.Name(), err)
		}
		if verr > 0 {
			bad("%s observed %d byte-pattern mismatches", cl.Name(), verr)
		}
	}
	return out
}

// quiet reports whether gray-quiescence holds the run: its plan has no
// fault, or gray noise struck (corruption, clock skew) and nothing else did
// but benign drop, loss and delay windows, which neither demand a verdict
// nor excuse one.
func (run *Run) quiet() bool {
	if len(run.plan.Faults) == 0 {
		return true
	}
	noise := false
	for _, s := range run.Testbed.strikes {
		switch s.Kind {
		case FaultCorrupt, FaultSerialCorrupt, FaultClockSkew:
			noise = true
		case FaultDrop, FaultLoss, FaultDelay:
		default:
			return false
		}
	}
	return noise
}

// quiescence is the gray-quiescence invariant over the finished run: no
// node ever suspected its peer, took over or fell back to non-FT mode, and
// both ended the run active.
func (run *Run) quiescence() []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{Invariant: "gray-quiescence", Detail: "a run with nothing to convict " + fmt.Sprintf(format, args...)})
	}
	tb := run.Testbed
	if e, ok := tb.Tracer.First(trace.KindSuspect); ok {
		bad("raised a suspicion at %v: %s: %s", e.Time.Sub(sim.Epoch), e.Component, e.Message)
	}
	snap := tb.Metrics.Snapshot()
	for _, ctr := range []string{"sttcp.takeovers", "sttcp.nonft_transitions"} {
		if n := snap.CounterTotal(ctr); n > 0 {
			bad("recorded %d %s", n, ctr)
		}
	}
	if p, b := tb.PrimaryNode.State(), tb.BackupNode.State(); p != sttcp.StateActive || b != sttcp.StateActive {
		bad("ended %v/%v, want active/active", p, b)
	}
	return out
}

// struck is one fault that took effect, its host resolved to the machine it
// struck. A corrupting window also counts, in exposed, the traffic its rate
// applied to until it closed.
type struck struct {
	Fault
	exposed func() int64
}

// grayExpect is one detection obligation a verdict-class gray fault leaves:
// a takeover must start by deadline (run-relative).
type grayExpect struct {
	deadline time.Duration
	what     string
}

// grayDetectionViolation judges one obligation against the start of the
// run's first takeover (tookOver false: there was none).
func grayDetectionViolation(ex grayExpect, first time.Duration, tookOver bool) (Violation, bool) {
	v := Violation{Invariant: "gray-detection-bound"}
	switch {
	case !tookOver:
		v.Detail = fmt.Sprintf("no takeover answered %s (deadline %v)", ex.what, ex.deadline)
	case first > ex.deadline:
		v.Detail = fmt.Sprintf("takeover answering %s started at %v, past deadline %v", ex.what, first, ex.deadline)
	}
	return v, v.Detail != ""
}

// grayEvidence is the fingerprint a gray-noise fault must leave: seen is
// whether it showed by the end of the run. A fingerprint that is
// statistical is demanded only once the fault exposed at least need
// frames or messages to its rate — a clean window proves nothing if almost
// no traffic crossed it (0.95^250 ≈ 3e-6 at the gray campaign's rate
// floor; 0.70^25 ≈ 1e-4 on serial).
type grayEvidence struct {
	desc          string
	seen          bool
	exposed, need int64
}

// grayEvidenceViolation judges one fingerprint.
func grayEvidenceViolation(e grayEvidence) (Violation, bool) {
	return Violation{Invariant: "gray-evidence", Detail: "expected evidence never materialised: " + e.desc},
		!e.seen && e.exposed >= e.need
}

// flapContainmentViolation judges the takeover count of a run in which an
// interface flap struck.
func flapContainmentViolation(takeovers int64) (Violation, bool) {
	return Violation{Invariant: "flap-containment", Detail: fmt.Sprintf("flapping caused %d takeovers; STONITH must prevent oscillation", takeovers)},
		takeovers > 1
}

// Corruption exposure floors: see grayEvidence.
const (
	corruptMinFrames     = 250
	serialCorruptMinMsgs = 25
)

// grayVerdicts evaluates the three verdicts that read the record of what
// struck, once, over the finished run, against the heartbeat period of the
// pair the run started with.
func (run *Run) grayVerdicts(period time.Duration) []Violation {
	tb := run.Testbed
	var expects []grayExpect
	var evidence []grayEvidence
	flapped := false
	for _, s := range tb.strikes {
		switch s.Kind {
		case FaultStarve:
			// A starve this deep holds echo response staleness past the
			// SLO ((scale−1)·1 ms of app quantum stretch), so the scorer
			// must reach its threshold: its SLO and hold (DESIGN.md §7)
			// plus heartbeat piggyback lag, with slack for the score ramp.
			if tb.echo && s.Scale >= 420 && s.Dur >= 5*time.Second {
				expects = append(expects, grayExpect{s.At + 4*time.Second,
					fmt.Sprintf("slow-not-dead primary (cpu ×%.0f) past response SLO", s.Scale)})
			}
		case FaultTxCut:
			// The standby's asymmetric-partition criterion convicts within
			// its bound; the slack covers the ping and detector cadence.
			expects = append(expects, grayExpect{s.At + sttcp.AsymPartitionBound(period) + 1500*time.Millisecond,
				fmt.Sprintf("asymmetric partition (%s outbound cut)", s.Host)})
		case FaultCorrupt:
			evidence = append(evidence, grayEvidence{fmt.Sprintf("checksum rejects on the %s link", s.Host),
				tb.Link(s.Host).Corrupted > 0, s.exposed(), corruptMinFrames})
		case FaultSerialCorrupt:
			evidence = append(evidence, grayEvidence{"CRC rejects on the serial cable",
				tb.SerialPrimary.CRCErrors+tb.SerialBackup.CRCErrors > 0, s.exposed(), serialCorruptMinMsgs})
		case FaultClockSkew:
			// A skew this large held this long trips the peer's cadence
			// drift estimator (±80‰ note threshold, EWMA warm-up ≈ 30
			// heartbeats), if the observer lives and its heartbeat stream
			// stays whole (driftObservable).
			if run.driftObservable() && math.Abs(s.Scale-1) >= 0.10 && s.Dur >= 5*time.Second {
				evidence = append(evidence, grayEvidence{desc: fmt.Sprintf("heartbeat cadence drift note for %s (×%.3f)", s.Host, s.Scale),
					seen: run.driftNoted()})
			}
		case FaultNICFlap, FaultSerialFlap:
			flapped = true
		}
	}

	var out []Violation
	add := func(v Violation, bad bool) {
		if bad {
			out = append(out, v)
		}
	}
	first, tookOver := time.Duration(0), false
	for _, sp := range tb.Tracer.FilterSpans(trace.KindTakeover) {
		if at := sp.Start.Sub(sim.Epoch); !tookOver || at < first {
			first, tookOver = at, true
		}
	}
	for _, ex := range expects {
		add(grayDetectionViolation(ex, first, tookOver))
	}
	for _, e := range evidence {
		add(grayEvidenceViolation(e))
	}
	if flapped {
		add(flapContainmentViolation(tb.Metrics.Snapshot().CounterTotal("sttcp.takeovers")))
	}
	return out
}

// driftNoted reports whether a node of the run noted its peer's clock-rate
// skew.
func (run *Run) driftNoted() bool {
	return slices.ContainsFunc(run.nodes, func(n *sttcp.Node) bool { return n.DriftNotes() > 0 })
}

// driftObservable reports whether the serving node's heartbeat-cadence
// drift estimator can be expected to converge under this plan. It cannot
// when a verdict-class gray fault may STONITH the observer mid-run (starve,
// asymmetric partition), nor when a NIC flap punches holes in the very
// inter-arrival stream the estimator averages.
func (run *Run) driftObservable() bool {
	for _, f := range run.plan.Faults {
		switch f.Kind {
		case FaultStarve, FaultTxCut, FaultNICFlap:
			return false
		}
	}
	return true
}
