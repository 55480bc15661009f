package chaos

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Options tune a chaos run. The sabotage switches deliberately break a
// protocol mechanism so tests can prove the invariant registry catches real
// bugs — they are never used in campaigns.
type Options struct {
	// SabotageUnsuppressedBackup disables the backup's output
	// suppression on accepted connections: the replica transmits its
	// (identical) output alongside the primary. The client cannot tell,
	// but the backup-silence invariant must.
	SabotageUnsuppressedBackup bool
	// SabotageBlindDetectors cranks every failure-detection timeout to
	// roughly an hour, so no fault is ever detected within the run.
	// Fatal faults then strand the clients, which the integrity
	// invariant must report.
	SabotageBlindDetectors bool
	// TraceDetail enables per-segment/per-frame detail events and spans
	// on the run's recorder.
	TraceDetail bool
	// CustomScheduler, when non-nil, supplies the run's event queue in
	// place of the heap. The factory is invoked once per run, at testbed
	// build, and must return a fresh queue — the exhaustive-interleaving
	// explorer injects its tie-break-forking wrapper here and keeps the
	// returned instance to read the recorded choices back out.
	CustomScheduler func() sim.Scheduler
	// TelemetryWindow, when > 0, samples every registered instrument into
	// windowed time series at this period; the unwrapped timeline lands in
	// RunResult.Telemetry. Sampling ticks consume no randomness and do not
	// perturb protocol event order, so runs stay byte-identical with
	// telemetry on or off.
	TelemetryWindow time.Duration
}

// clientRec tracks one workload connection.
type clientRec struct {
	name    string
	cl      app.Client
	started time.Time
}

func (r *clientRec) done() bool {
	done, _, _ := r.cl.Outcome()
	return done
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

// grayExpect is one recorded detection obligation: the gray fault just
// applied must cause a takeover whose span starts at or before deadline
// (run-relative). Judged by the gray-detection-bound invariant.
type grayExpect struct {
	deadline time.Duration
	what     string
}

// grayEvidence is one end-of-run predicate proving an injected gray fault
// actually bit (corruption counters advanced, the drift note fired).
// Judged by the gray-evidence invariant.
type grayEvidence struct {
	desc string
	ok   func() bool
}

// harness owns one chaos run.
type harness struct {
	sc   Schedule
	opts Options

	tb *experiment.Testbed
	lc *experiment.Lifecycle

	// nodes lists every sttcp node ever started (stale post-crash nodes
	// included; their state is Stopped).
	nodes   []*sttcp.Node
	clients []*clientRec
	eras    []*silenceEra

	// Fault bookkeeping the world does not hold: a cut cable (a flapped
	// or crashed port is also Down, which is not the same fact), and
	// lossUntil, when the latest loss window on a *server* link ends —
	// serial cuts are deferred past it (see the EvSerialCut row).
	serialCut bool
	lossUntil time.Duration
	// standbyRiskUntil is when the standby's link was last dropping
	// inbound client bytes, plus a recovery grace period. Killing the
	// serving machine inside that window is the paper's §4.3
	// output-commit exposure: the standby may be missing bytes the
	// primary already ACKed, and the hold buffer that could replay them
	// dies with the primary (only the optional logger machine closes
	// this), so the harness never stacks those two faults.
	standbyRiskUntil time.Duration

	haveRejoined bool
	lastRejoin   time.Time
	lastEventAt  time.Duration

	// Gray-failure bookkeeping (recorded by the after hooks of the gray
	// kinds, judged by endInvariants).
	injected      map[EventKind]int
	fatalInjected bool
	grayNoise     int
	flapApplied   bool
	grayExpects   []grayExpect
	grayEvidence  []grayEvidence

	// cfg is the primary's filled-in config, for invariant bounds.
	cfg sttcp.Config

	violations []Violation
	skipped    []string
}

// Run executes one chaos schedule on a fresh testbed and returns the
// invariant-checked result. The run is a pure function of (sc, opts): the
// same inputs produce byte-identical traces and metrics.
func Run(sc Schedule, opts Options) (*RunResult, error) {
	h := &harness{sc: sc, opts: opts, injected: make(map[EventKind]int)}
	h.tb = experiment.Build(experiment.Options{
		Seed:            sc.Seed,
		TraceDetail:     opts.TraceDetail,
		CustomScheduler: opts.CustomScheduler,
		TelemetryWindow: opts.TelemetryWindow,
	})
	mutate := func(c *sttcp.Config) {
		// Detection must outrun the gated-FIN auto-release: a silent
		// app crash is declared (AppMaxLagTime) long before a lone FIN
		// would be released on trust (MaxDelayFIN).
		c.MaxDelayFIN = 10 * time.Second
		c.AppMaxLagTime = 3 * time.Second
		// Schedules that carry gray faults get the gray-failure
		// detector suite; crisp schedules keep it off so legacy seeds
		// replay byte-identically.
		if sc.HasGray() {
			c.Suspicion.Enabled = true
		}
		if opts.SabotageBlindDetectors {
			blindDetectors(c)
		}
	}
	if err := h.tb.StartSTTCP(0, mutate); err != nil {
		return nil, err
	}
	h.lc = experiment.NewLifecycle(h.tb)
	h.cfg = h.tb.PrimaryNode.Config()

	h.tb.AttachServers(sc.Workload == "echo")
	h.hookNode(h.tb.PrimaryNode)
	h.hookNode(h.tb.BackupNode)

	for _, ev := range sc.Events {
		ev := ev
		h.tb.Sim.Schedule(ev.At, func() { h.fire(ev) })
		// The run must outlast every fault *window*, not just the last
		// injection instant — gray evidence (drift notes, corruption
		// counters) accumulates across the whole window.
		if end := ev.At + ev.Dur; end > h.lastEventAt {
			h.lastEventAt = end
		}
	}

	horizon := sc.Horizon
	if horizon == 0 {
		horizon = 60 * time.Second
	}
	// Advance in slices so the run can stop early once every client has
	// finished and the schedule (plus a grace period for detectors to
	// settle) is exhausted.
	for h.tb.Sim.Elapsed() < horizon {
		slice := 500 * time.Millisecond
		if rem := horizon - h.tb.Sim.Elapsed(); rem < slice {
			slice = rem
		}
		if err := h.tb.Run(slice); err != nil {
			return nil, err
		}
		if h.allClientsDone() && h.tb.Sim.Elapsed() >= h.lastEventAt+2*time.Second {
			break
		}
	}
	h.closeAllEras()
	// Resolve the causal-span layer before judging it: nodes close a
	// legitimately still-pending retransmission wait, fan-out spans are
	// finalized at their last activity. Anything still open after this
	// is leaked instrumentation.
	for _, n := range h.nodes {
		n.FinishTrace()
	}
	h.tb.Tracer.FinalizeAutoSpans()

	res := &RunResult{
		Schedule:  sc,
		Opts:      opts,
		Trace:     h.tb.Tracer,
		Metrics:   h.tb.Metrics.Snapshot(),
		Telemetry: h.tb.Telemetry.Timeline(),
		Skipped:   h.skipped,
		Injected:  make(map[string]int, len(h.injected)),
	}
	for k, n := range h.injected {
		res.Injected[k.String()] = n
	}
	for _, r := range h.clients {
		res.Clients = append(res.Clients, summarize(r))
	}
	res.Violations = append(res.Violations, h.violations...)
	res.Violations = append(res.Violations, h.endInvariants(res.Metrics)...)
	return res, nil
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

// servingNode is whichever node currently owns the client connections.
func (h *harness) servingNode() *sttcp.Node {
	if b := h.lc.BackupNode(); b.State() == sttcp.StateTakenOver {
		return b
	}
	return h.lc.PrimaryNode()
}

// standbyNode is the active backup, or nil when fault tolerance is
// currently lost.
func (h *harness) standbyNode() *sttcp.Node {
	b := h.lc.BackupNode()
	if b.State() == sttcp.StateActive && h.lc.PrimaryNode().State() == sttcp.StateActive {
		return b
	}
	return nil
}

// healthy reports whether the host is fully up: not crashed, NIC alive,
// application alive. All three are read from the world (a crash fails the
// NIC and Reboot recovers it; a rejoin installs a fresh replica).
func (h *harness) healthy(host *cluster.Host) bool {
	return !host.NIC().Failed() && !h.tb.Server(host.Name()).Crashed()
}

// nicDown reports a machine that is running with a dead NIC — the state
// in which the serial line is its only voice.
func nicDown(host *cluster.Host) bool { return host.NIC().Failed() && !host.Crashed() }

func (h *harness) allClientsDone() bool {
	for _, r := range h.clients {
		if !r.done() {
			return false
		}
	}
	return true
}

func (h *harness) note(ev Event, target string) {
	h.tb.Tracer.Emit(trace.KindGeneric, "chaos", "inject %v → %s", ev, target)
}

func (h *harness) skip(ev Event, reason string) {
	h.skipped = append(h.skipped, fmt.Sprintf("%v: %s", ev, reason))
	h.tb.Tracer.Emit(trace.KindGeneric, "chaos", "skip %v (%s)", ev, reason)
}

// noteStandbyRisk records that the standby's inbound link is unreliable
// for d, plus a grace period for any in-flight missed-byte recovery.
func (h *harness) noteStandbyRisk(d time.Duration) {
	if until := h.tb.Sim.Elapsed() + d + 500*time.Millisecond; until > h.standbyRiskUntil {
		h.standbyRiskUntil = until
	}
}

// extendLossWindow records that a server link is unreliable for d from
// now.
func (h *harness) extendLossWindow(d time.Duration) {
	if until := h.tb.Sim.Elapsed() + d; until > h.lossUntil {
		h.lossUntil = until
	}
}

// clientsSurviveServingLoss reports whether killing the serving machine is
// survivable for every unfinished client. Connections opened before the
// last rejoin are local-only on the survivor (reintegration does not
// replicate pre-existing connections), so they die with it.
func (h *harness) clientsSurviveServingLoss() bool {
	if !h.haveRejoined {
		return true
	}
	for _, r := range h.clients {
		if !r.done() && r.started.Before(h.lastRejoin) {
			return false
		}
	}
	return true
}

// startClient opens one workload connection; a non-nil error skips the
// event (reachability is vetted by the row's guard).
func (h *harness) startClient(ev Event) error {
	name := "client/app"
	if len(h.clients) > 0 {
		name = fmt.Sprintf("client%d/app", len(h.clients)+1)
	}
	cl, err := h.tb.StartClient(name, experiment.Workload{
		Echo: h.sc.Workload == "echo", Bytes: h.sc.Bytes,
		Rounds: h.sc.Rounds, MsgSize: h.sc.MsgSize, Gap: 3 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	rec := &clientRec{name: name, cl: cl, started: h.tb.Sim.Now()}
	h.clients = append(h.clients, rec)
	h.note(ev, name)
	return nil
}

// rejoin reboots the dead machine and reintegrates it as the new backup.
func (h *harness) rejoin(ev Event) error {
	dead := h.lc.PrimaryHost()
	if err := h.lc.Reintegrate(h.tb.NewReplica); err != nil {
		return fmt.Errorf("reintegrate: %v", err)
	}
	h.note(ev, dead.Name())
	// The repair also replaces a cut serial cable (Reboot resets only the
	// dead side's port).
	if h.serialCut {
		h.tb.SerialPrimary.SetDown(false)
		h.tb.SerialBackup.SetDown(false)
		h.serialCut = false
	}
	h.haveRejoined = true
	h.lastRejoin = h.tb.Sim.Now()
	h.hookNode(h.lc.BackupNode())
	return nil
}

// blindDetectors is the SabotageBlindDetectors mutation: every failure
// detector sleeps for about an hour, far past any run horizon.
func blindDetectors(c *sttcp.Config) {
	const never = time.Hour
	c.HB.Period = 200 * time.Millisecond
	c.HB.Timeout = never
	c.AppMaxLagTime = never
	c.AppLagByteHold = never
	c.MaxDelayFIN = never
	c.NICLagTime = never
	c.NICLagGrace = never
	c.PingFailsForVerdict = 1 << 30
	// The gray-failure suite sleeps too.
	c.Suspicion.RespSLO = never
	c.Suspicion.RespHold = never
	c.AsymHold = never
}
