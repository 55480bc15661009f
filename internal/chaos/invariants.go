package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/hb"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Violation is one broken invariant.
type Violation struct {
	// Invariant is the registry name (see InvariantNames).
	Invariant string
	// Detail says what was observed.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// InvariantNames lists the system-wide invariants every chaos run is
// checked against, in evaluation order.
//
//   - single-transmitter: at every node state change, at most one
//     non-crashed node believes it owns client output (an active or non-FT
//     primary, or a taken-over backup). STONITH-before-takeover is what
//     makes this hold.
//   - backup-silence: a node holding the backup role sends zero TCP
//     segments (output suppression), measured per role era from the host's
//     live tcp.segments_sent counter.
//   - client-integrity: every client finishes its workload with no error
//     and no pattern-verification failure — the paper's client-transparent
//     failover claim.
//   - takeover-latency: every recorded takeover latency is bounded by
//     hb.Timeout + the period + 600 ms (detection timeout, plus liveness-
//     check quantisation, plus the worst benign inbound-drop window a
//     schedule may stack on top).
//   - span-integrity: the causal span tree is well-formed at end of run —
//     every takeover span has a suspect event on itself or an ancestor
//     (a takeover must be caused by a declared suspicion), no non-auto
//     span is left open, and the recorder saw no open/close errors.
//   - gray-quiescence: a run whose gray faults were all noise-class
//     (corruption, mild skew — no detection expectation recorded), with no
//     crisp fatal fault and no flap, must end with zero takeovers, zero
//     non-FT transitions, and zero suspects: checksum noise alone is never
//     grounds for a verdict.
//   - gray-detection-bound: every verdict-class gray fault (slow-not-dead
//     starve past the response SLO, asymmetric partition) must be answered
//     by a takeover starting no later than the injector's recorded
//     deadline.
//   - gray-evidence: every injected gray fault left its fingerprint —
//     corruption windows advanced a checksum/CRC reject counter, large
//     clock skew tripped the peer's cadence-drift note.
//   - flap-containment: interface flapping faster than the detection
//     period may legitimately trip a crisp detector once, but STONITH must
//     prevent dual-transmitter oscillation: at most one takeover.
func InvariantNames() []string {
	return []string{
		"single-transmitter",
		"backup-silence",
		"client-integrity",
		"takeover-latency",
		"span-integrity",
		"gray-quiescence",
		"gray-detection-bound",
		"gray-evidence",
		"flap-containment",
	}
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
	if len(who) <= 1 {
		return Violation{}, false
	}
	return Violation{
		Invariant: "single-transmitter",
		Detail: fmt.Sprintf("at %v (after %s): %s all believe they own client output",
			elapsed, cause, strings.Join(who, " and ")),
	}, true
}

// backupSilenceViolation judges one closed silence era: segments is the
// era's delta of the node's live tcp.segments_sent counter, which must
// be zero while the backup role is held.
func backupSilenceViolation(name string, segments int64, openedAt, closedAt time.Duration) (Violation, bool) {
	if segments <= 0 {
		return Violation{}, false
	}
	return Violation{
		Invariant: "backup-silence",
		Detail: fmt.Sprintf("%s sent %d TCP segments while holding the backup role (era %v–%v)",
			name, segments, openedAt, closedAt),
	}, true
}

// silenceEra is one interval during which a node held the backup role and
// therefore must not have transmitted a single TCP segment. The counter is
// the live instrument of the host's TCP stack (the registry dedupes, so it
// survives a reboot); the era closes at the transition to taken-over —
// which the node signals before it unsuppresses anything — or stopped, or
// at the end of the run.
type silenceEra struct {
	node     *sttcp.Node
	ctr      *metrics.Counter
	baseline int64
	openedAt time.Duration
	open     bool
}

// hookNode installs the harness's observation (and sabotage) hooks on a
// newly started node.
func (h *harness) hookNode(n *sttcp.Node) {
	h.nodes = append(h.nodes, n)
	if h.opts.SabotageUnsuppressedBackup {
		inner := n.OnAccept
		n.OnAccept = func(c *tcp.Conn) {
			if n.Role() == sttcp.RoleBackup && n.State() == sttcp.StateActive {
				c.SetSuppressed(false)
			}
			if inner != nil {
				inner(c)
			}
		}
	}
	if n.Role() == sttcp.RoleBackup && n.State() == sttcp.StateActive {
		h.openEra(n)
	}
	n.OnStateChange = func(s sttcp.NodeState) { h.onStateChange(n, s) }
}

func (h *harness) onStateChange(n *sttcp.Node, s sttcp.NodeState) {
	// A node leaving the backup role — to take over (it will unsuppress
	// and retransmit right after this hook) or because it died — ends
	// its silence obligation; check it now.
	if s == sttcp.StateTakenOver || s == sttcp.StateStopped {
		h.closeEra(n)
	}
	cause := fmt.Sprintf("%v became %v", n.Host().Name(), s)
	if v, bad := singleTransmitterViolation(h.tb.Sim.Elapsed(), cause, h.transmitters()); bad {
		h.violate(v.Invariant, v.Detail)
	}
}

// transmitters lists the nodes currently entitled to transmit to clients: a
// primary that is active or in non-FT mode, or a backup that has taken
// over. STONITH-before-takeover must keep this set at ≤1 at all times.
func (h *harness) transmitters() []string {
	var who []string
	for _, n := range h.nodes {
		if n.Host().Crashed() {
			continue
		}
		if transmitterEntitled(n.Role(), n.State()) {
			who = append(who, fmt.Sprintf("%s(%v/%v)", n.Host().Name(), n.Role(), n.State()))
		}
	}
	return who
}

func (h *harness) openEra(n *sttcp.Node) {
	ctr := h.tb.Metrics.Counter(n.Host().Name()+"/tcp", "tcp.segments_sent")
	h.eras = append(h.eras, &silenceEra{
		node: n, ctr: ctr, baseline: ctr.Value(),
		openedAt: h.tb.Sim.Elapsed(), open: true,
	})
}

func (h *harness) closeEra(n *sttcp.Node) {
	for _, e := range h.eras {
		if e.node == n && e.open {
			e.open = false
			if v, bad := backupSilenceViolation(n.Host().Name(), e.ctr.Value()-e.baseline,
				e.openedAt, h.tb.Sim.Elapsed()); bad {
				h.violate(v.Invariant, v.Detail)
			}
		}
	}
}

func (h *harness) closeAllEras() {
	for _, e := range h.eras {
		if e.open {
			h.closeEra(e.node)
		}
	}
}

func (h *harness) violate(inv, detail string) {
	h.violations = append(h.violations, Violation{Invariant: inv, Detail: detail})
}

// ClientSummary reports one workload connection's outcome.
type ClientSummary struct {
	Name     string
	Done     bool
	Err      string
	Progress string
}

func summarize(cl app.Client) ClientSummary {
	s := ClientSummary{Name: cl.Name(), Progress: cl.Progress()}
	var err error
	if s.Done, _, err = cl.Outcome(); err != nil {
		s.Err = err.Error()
	}
	return s
}

// RunResult is everything a chaos run produced.
type RunResult struct {
	Schedule Schedule
	Opts     Options
	Trace    *trace.Recorder
	Metrics  *metrics.Snapshot
	// Telemetry is the windowed time-series timeline, nil unless
	// Options.TelemetryWindow was set.
	Telemetry *telemetry.Timeline
	Clients   []ClientSummary
	// Violations is empty iff every invariant held.
	Violations []Violation
	// Skipped lists scheduled events the harness refused to inject (with
	// reasons): unsurvivable combinations or faults whose target was
	// already gone.
	Skipped []string
	// Injected counts successfully applied events per injector name.
	Injected map[string]int
}

// Failed reports whether any invariant was violated.
func (r *RunResult) Failed() bool { return len(r.Violations) > 0 }

// Report renders a failure report with the seed, the schedule, and every
// violation — everything needed to replay the run.
func (r *RunResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos run failed: %d invariant violation(s)\n", len(r.Violations))
	fmt.Fprintf(&b, "schedule: %v", r.Schedule)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION %v\n", v)
	}
	for _, c := range r.Clients {
		fmt.Fprintf(&b, "  client %s: done=%v %s", c.Name, c.Done, c.Progress)
		if c.Err != "" {
			fmt.Fprintf(&b, " err=%q", c.Err)
		}
		b.WriteString("\n")
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "  skipped %s\n", s)
	}
	// The failing run's anatomy, right next to the seed: the span
	// timeline shows where detection, takeover, and the retransmission
	// wait actually sat when the invariant broke.
	if r.Trace != nil && r.Trace.Len() > 0 {
		b.WriteString("timeline:\n")
		b.WriteString(r.Trace.RenderSpanTimeline(trace.TimelineOptions{Width: 100, Epoch: sim.Epoch}))
	}
	grayFlag := ""
	if r.Schedule.HasGray() {
		grayFlag = " -chaos.gray"
	}
	fmt.Fprintf(&b, "replay: go test ./internal/chaos -run TestChaos -chaos.seed=%d%s\n", r.Schedule.Seed, grayFlag)
	return b.String()
}

// endInvariants evaluates the invariants that are checked once, after the
// run (the live ones — single-transmitter, backup-silence — accumulate in
// h.violations as the run progresses).
func (h *harness) endInvariants(snap *metrics.Snapshot) []Violation {
	var out []Violation
	bad := func(inv, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	// client-integrity: the paper's claim — every client finishes, with
	// every byte verified against the deterministic pattern.
	for _, cl := range h.run.Clients {
		s := summarize(cl)
		switch {
		case !s.Done:
			bad("client-integrity", "%s never finished (%s)", s.Name, s.Progress)
		case s.Err != "":
			bad("client-integrity", "%s failed: %s", s.Name, s.Err)
		}
		if _, verr, _ := cl.Outcome(); verr > 0 {
			bad("client-integrity", "%s observed %d byte-pattern mismatches", s.Name, verr)
		}
	}

	// takeover-latency: detection must act within the heartbeat budget.
	bound := hb.Timeout(h.cfg.HBPeriod) + h.cfg.HBPeriod + 600*time.Millisecond
	for _, sm := range snap.Find("sttcp.takeover_latency") {
		if sm.Type == "histogram" && sm.Count > 0 && sm.MaxDur > bound {
			bad("takeover-latency", "%s recorded takeover latency %v > bound %v",
				sm.Component, sm.MaxDur, bound)
		}
	}

	// span-integrity: the causal tree must be coherent. A takeover with
	// no suspect in its ancestry means the backup promoted itself
	// without a declared suspicion; an open non-auto span or a recorded
	// open/close error means leaked instrumentation.
	for _, sp := range h.tb.Tracer.FilterSpans(trace.KindTakeover) {
		if !h.tb.Tracer.CausallyLinked(sp.ID, trace.KindSuspect) {
			bad("span-integrity", "takeover span #%d (%s) has no causally-linked suspect ancestor",
				sp.ID, sp.Component)
		}
	}
	for _, sp := range h.tb.Tracer.OpenSpans() {
		bad("span-integrity", "span #%d (%v %s %q) left open at end of run",
			sp.ID, sp.Kind, sp.Component, sp.Message)
	}
	for _, e := range h.tb.Tracer.SpanErrors() {
		bad("span-integrity", "recorder error: %s", e)
	}

	// gray-quiescence: noise-class degradation (corruption, mild skew)
	// must never escalate to a verdict. Only judged when the run injected
	// gray noise and nothing that legitimately warrants one: no verdict
	// expectation, no crisp fatal fault, no flap.
	if h.grayNoise > 0 && len(h.grayExpects) == 0 && !h.fatalInjected && !h.flapApplied {
		for _, ctr := range []string{"sttcp.takeovers", "sttcp.nonft_transitions", "sttcp.suspects"} {
			if n := snap.CounterTotal(ctr); n > 0 {
				bad("gray-quiescence", "noise-only gray run still recorded %d %s", n, ctr)
			}
		}
	}

	// gray-detection-bound: a verdict-class gray fault must be answered
	// by a takeover starting at or before its recorded deadline.
	if len(h.grayExpects) > 0 {
		var earliest time.Time
		for _, sp := range h.tb.Tracer.FilterSpans(trace.KindTakeover) {
			if earliest.IsZero() || sp.Start.Before(earliest) {
				earliest = sp.Start
			}
		}
		for _, ex := range h.grayExpects {
			switch {
			case earliest.IsZero():
				bad("gray-detection-bound", "no takeover answered %s (deadline %v)",
					ex.what, ex.deadline)
			case earliest.Sub(sim.Epoch) > ex.deadline:
				bad("gray-detection-bound", "takeover answering %s started at %v, past deadline %v",
					ex.what, earliest.Sub(sim.Epoch), ex.deadline)
			}
		}
	}

	// gray-evidence: each injected gray fault must have left its
	// fingerprint by end of run.
	for _, e := range h.grayEvidence {
		if !e.ok() {
			bad("gray-evidence", "expected evidence never materialised: %s", e.desc)
		}
	}

	// flap-containment: a flap may trip a crisp detector once; STONITH
	// must prevent the second takeover (oscillation).
	if h.flapApplied {
		if n := snap.CounterTotal("sttcp.takeovers"); n > 1 {
			bad("flap-containment", "flapping caused %d takeovers; STONITH must prevent oscillation", n)
		}
	}
	return out
}
