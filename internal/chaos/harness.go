package chaos

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/sttcp"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Options tune a chaos run: the testbed's options (the schedule's seed is
// the run's), and two sabotage switches, unexported, that this package's
// tests set to break a protocol mechanism deliberately and prove the
// invariant registry catches real bugs — campaigns never use them.
type Options struct {
	experiment.Options
	// sabotageUnsuppressedBackup disables the backup's output
	// suppression on accepted connections: the replica transmits its
	// (identical) output alongside the primary. The client cannot tell,
	// but the backup-silence invariant must.
	sabotageUnsuppressedBackup bool
	// sabotageBlindDetectors stretches the heartbeat period and
	// MaxDelayFIN to an hour, so no fault is ever detected within the run:
	// the detectors tick at half the heartbeat period and a link times out
	// after three. Fatal faults then strand the clients, which the
	// integrity invariant must report.
	sabotageBlindDetectors bool
}

// harness is one chaos run's Judge: it fires the schedule's events
// through the kinds table and keeps the records the gray invariants read.
type harness struct {
	sc   Schedule
	opts Options

	run *experiment.Run
	tb  *experiment.Testbed

	// starts and strikes are the schedule's events that became the plan's
	// clients and its faults, index for index.
	starts, strikes []Event

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
	// preRejoin counts the clients started before the last rejoin.
	preRejoin   int
	lastEventAt time.Duration

	// Gray-failure bookkeeping (recorded by the after hooks of the gray
	// kinds, judged by grayInvariants).
	injected      map[string]int
	fatalInjected bool
	grayNoise     int
	flapApplied   bool
	grayExpects   []grayExpect
	grayEvidence  []grayEvidence

	// cfg is the primary's filled-in config, for invariant bounds.
	cfg sttcp.Config

	skipped []string
}

// Run executes one chaos schedule on a fresh testbed and returns the
// invariant-checked result. The run is a pure function of (sc, opts): the
// same inputs produce byte-identical traces and metrics.
func Run(sc Schedule, opts Options) (*RunResult, error) {
	h := &harness{sc: sc, opts: opts, injected: map[string]int{}}
	// With the judge firing every fault, the plan errs only with the run's
	// violations, read off the run below; an unbuilt run comes back nil.
	run, err := h.plan().Run()
	if run == nil {
		return nil, err
	}
	violations := run.Violations
	// Noise-class gray degradation (corruption, mild skew) must never
	// escalate to a verdict: a run that injected gray noise and nothing
	// that legitimately warrants one — no verdict expectation, no crisp
	// fatal fault, no flap — is held to the quiescence of a run that
	// injected nothing.
	if h.grayNoise > 0 && len(h.grayExpects) == 0 && !h.fatalInjected && !h.flapApplied {
		violations = append(violations, run.Quiescence()...)
	}
	snap := h.tb.Metrics.Snapshot()
	res := &RunResult{
		Schedule: sc, Trace: h.tb.Tracer, Metrics: snap, Telemetry: h.tb.Telemetry.Timeline(),
		Skipped: h.skipped, Injected: h.injected,
		Violations: append(violations, h.grayInvariants(snap)...),
	}
	for _, cl := range run.Clients {
		res.Clients = append(res.Clients, summarize(cl))
	}
	return res, nil
}

// plan compiles the schedule: its client starts become the plan's clients
// and every other event a fault, each fired through the kinds table as it
// falls due.
func (h *harness) plan() experiment.Plan {
	sc := h.sc
	p := experiment.Plan{
		Options: h.opts.Options,
		Mutate: func(c *sttcp.Config) {
			// Detection must outrun the gated-FIN auto-release: a silent
			// app crash is declared (AppMaxLagTime) long before a lone FIN
			// would be released on trust (MaxDelayFIN).
			c.MaxDelayFIN = 10 * time.Second
			c.AppMaxLagTime = 3 * time.Second
			if h.opts.sabotageBlindDetectors {
				c.HBPeriod, c.MaxDelayFIN = time.Hour, time.Hour
			}
		},
		Horizon: cmp.Or(sc.Horizon, 60*time.Second),
		Judge:   experiment.Judge{Watch: h.watch, Start: h.start, Fire: h.fire, Check: h.check},
	}
	p.Seed = sc.Seed
	w := experiment.Workload{
		Echo: sc.Workload == "echo", Bytes: sc.Bytes,
		Rounds: sc.Rounds, MsgSize: sc.MsgSize, Gap: 3 * time.Millisecond,
	}
	for _, ev := range sc.Events {
		// The run must outlast every fault *window*, not just the last
		// injection instant — gray evidence (drift notes, corruption
		// counters) accumulates across the whole window.
		h.lastEventAt = max(h.lastEventAt, ev.At+ev.Dur)
		if ev.Kind == EvClientStart || ev.Kind == EvSecondClient {
			w.At = ev.At
			p.Clients = append(p.Clients, w)
			h.starts = append(h.starts, ev)
			continue
		}
		var f experiment.Fault
		if ev.Kind >= 0 && int(ev.Kind) < len(kinds) {
			f = kinds[ev.Kind].fault(ev)
		}
		f.At = ev.At
		p.Faults = append(p.Faults, f)
		h.strikes = append(h.strikes, ev)
	}
	return p
}

// watch takes the run as it starts (Plan.Run watches its nodes) and, in
// this package's tests, sabotages the backup it starts with.
func (h *harness) watch(run *experiment.Run) {
	h.run, h.tb = run, run.Testbed
	h.cfg = h.tb.PrimaryNode.Config()
	if n := h.tb.BackupNode; h.opts.sabotageUnsuppressedBackup {
		accept := n.OnAccept
		n.OnAccept = func(c *tcp.Conn) {
			if n.State() == sttcp.StateActive {
				c.SetSuppressed(false)
			}
			accept(c)
		}
	}
}

// check is the early-stop rule, asked every 500 ms: the run ends once every
// client has finished and the schedule, plus a grace period for detectors
// to settle, is exhausted.
func (h *harness) check(*experiment.Run) (bool, time.Duration) {
	const slice = 500 * time.Millisecond
	now := h.tb.Sim.Elapsed()
	return allDone(h.run.Clients) && now >= h.lastEventAt+2*time.Second, now - now%slice + slice
}

// allDone reports whether every one of the clients has finished.
func allDone(clients []app.Client) bool {
	for _, cl := range clients {
		if done, _, _ := cl.Outcome(); !done {
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
