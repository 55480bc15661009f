package chaos

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// Options are the testbed options a chaos run builds its testbed with:
// trace detail, a telemetry window, the explorer's scheduler. The plan's
// own seed drives the run.
type Options struct {
	experiment.Options
}

// harness is one chaos run's Judge: it starts the plan's clients and
// strikes its faults through the rows table, and keeps the notes the
// guards read.
type harness struct {
	p   experiment.Plan
	run *experiment.Run
	tb  *experiment.Testbed

	// Fault bookkeeping the world does not hold: a cut cable (a flapped
	// or crashed port is also Down, which is not the same fact), and
	// lossUntil, when the latest loss window on a *server* link ends —
	// serial cuts are deferred past it (see the serial-cut row).
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
	preRejoin int
	// lastEventAt is when the plan's last client start or fault window
	// is over.
	lastEventAt time.Duration

	injected map[string]int
	skipped  []string
}

// Run executes one chaos plan on a fresh testbed built with opts and the
// plan's seed, and returns the invariant-checked result. Run gives the
// plan its judge (the harness), a 60 s horizon if it has none, and its
// nodes' config: detection must outrun the gated-FIN auto-release, so a
// silent app crash is declared (AppMaxLagTime) long before a lone FIN
// would be released on trust (MaxDelayFIN). The run is a pure function of
// (p, opts): the same inputs produce byte-identical traces and metrics.
func Run(p experiment.Plan, opts Options) (*RunResult, error) {
	h := &harness{p: p, injected: map[string]int{}}
	run := p
	run.Options, run.Seed = opts.Options, p.Seed
	run.Mutate = func(c *sttcp.Config) {
		c.MaxDelayFIN = 10 * time.Second
		c.AppMaxLagTime = 3 * time.Second
	}
	run.Horizon = cmp.Or(p.Horizon, 60*time.Second)
	run.Judge = experiment.Judge{Watch: h.watch, Start: h.start, Fire: h.fire, Check: h.check}
	// The run must outlast every fault *window*, not just the last
	// injection instant — gray evidence (drift notes, corruption
	// counters) accumulates across the whole window.
	for _, w := range p.Clients {
		h.lastEventAt = max(h.lastEventAt, w.At)
	}
	for _, f := range p.Faults {
		h.lastEventAt = max(h.lastEventAt, f.At+f.Dur)
	}
	// With the judge firing every fault, the plan errs only with the run's
	// violations, read off the run below; an unbuilt run comes back nil.
	r, err := run.Run()
	if r == nil {
		return nil, err
	}
	res := &RunResult{
		Plan: p, Trace: h.tb.Tracer, Metrics: h.tb.Metrics.Snapshot(), Telemetry: h.tb.Telemetry.Timeline(),
		Skipped: h.skipped, Injected: h.injected, Violations: r.Violations,
	}
	for _, cl := range r.Clients {
		res.Clients = append(res.Clients, summarize(cl))
	}
	return res, nil
}

// watch takes the run as it starts (Plan.Run watches its nodes).
func (h *harness) watch(run *experiment.Run) { h.run, h.tb = run, run.Testbed }

// check is the early-stop rule, asked every 500 ms: the run ends once every
// client has finished and the plan, plus a grace period for detectors to
// settle, is exhausted.
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

func (h *harness) note(desc, target string) {
	h.tb.Tracer.Emit(trace.KindGeneric, "chaos", "inject %s → %s", desc, target)
}

func (h *harness) skip(desc, reason string) {
	h.skipped = append(h.skipped, fmt.Sprintf("%s: %s", desc, reason))
	h.tb.Tracer.Emit(trace.KindGeneric, "chaos", "skip %s (%s)", desc, reason)
}
