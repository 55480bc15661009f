package experiment

import (
	"fmt"
	"strings"
	"time"

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
//   - client-integrity: every client finishes its workload with no error
//     and no pattern-verification failure — the paper's claim.
//   - takeover-latency: every takeover latency is at most hb.Timeout + the
//     period + 600 ms (detection, liveness-check quantisation, and the
//     worst benign inbound-drop window a chaos schedule stacks on top).
//   - span-integrity: at end of run every takeover span has a suspect on
//     itself or an ancestor, no non-auto span is open, and the recorder
//     saw no open/close error.
//   - gray-quiescence: a run that injected nothing a verdict answers ends
//     as it began (Run.Quiescence). Plan.Run asks it of a plan that
//     injects nothing; chaos of a run whose faults were all gray noise.
func InvariantNames() []string {
	return []string{"single-transmitter", "backup-silence", "client-integrity",
		"takeover-latency", "span-integrity", "gray-quiescence"}
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

// silenceEra is one interval during which a node held the backup role and
// so must not have sent a TCP segment, read off the live counter of the
// host's stack (the registry dedupes it, so it survives a reboot). It
// closes at the transition to taken-over — signalled before anything is
// unsuppressed — or stopped, or at the end of the run.
type silenceEra struct {
	node               *sttcp.Node
	ctr                *metrics.Counter
	baseline           int64
	openedAt, closedAt time.Duration
	open               bool
}

// watch puts a node the run started under the live invariants. A hook the
// node already has (a judge's Watch set it) keeps running after the
// registry's.
func (run *Run) watch(n *sttcp.Node) {
	run.nodes = append(run.nodes, n)
	if tb := run.Testbed; n.Role() == sttcp.RoleBackup && n.State() == sttcp.StateActive {
		ctr := tb.Metrics.Counter(n.Host().Name()+"/tcp", "tcp.segments_sent")
		run.eras = append(run.eras, &silenceEra{node: n, ctr: ctr, baseline: ctr.Value(), openedAt: tb.Sim.Elapsed(), open: true})
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
		run.closeEra(n)
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

func (run *Run) closeEra(n *sttcp.Node) {
	for _, e := range run.eras {
		if e.node == n && e.open {
			e.open, e.closedAt = false, run.Testbed.Sim.Elapsed()
			if v, bad := backupSilenceViolation(n.Host().Name(), e.ctr.Value()-e.baseline, e.openedAt, e.closedAt); bad {
				run.Violations = append(run.Violations, v)
			}
		}
	}
}

// judge is Plan.Run's postcondition: it closes the silence eras still open,
// resolves the span layer (a node closes a still-pending retransmission
// wait, a fan-out span ends at its last activity; anything open after that
// leaked), then adds the end invariants' violations, and when quiet
// gray-quiescence's, to the live ones.
func (run *Run) judge(quiet bool) {
	if run.plan.Plain {
		run.Violations = append(run.Violations, run.clientIntegrity()...)
		return
	}
	for _, n := range run.nodes {
		run.closeEra(n)
		n.FinishTrace()
	}
	run.Testbed.Tracer.FinalizeAutoSpans()
	run.Violations = append(run.Violations, run.endInvariants(run.nodes[0].Config().HBPeriod)...)
	if quiet {
		run.Violations = append(run.Violations, run.Quiescence()...)
	}
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

// Quiescence is the gray-quiescence invariant over the finished run: no
// node ever suspected its peer, took over or fell back to non-FT mode, and
// both ended the run active.
func (run *Run) Quiescence() []Violation {
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
