package experiment

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sttcp"
)

// Plan is what one run is: start client conversations against the
// replicated service, break things at chosen instants, watch the clients.
// Run is the one code that builds and runs a testbed: every runner in this
// package is a Plan literal plus the few lines that are its own, and a lab
// script (internal/scenario) and a chaos schedule (internal/chaos) each
// compile to one.
type Plan struct {
	Options
	// Plain runs the service on plain TCP, the paper's baseline: no ST-TCP
	// node starts, and each server runs the application on a plain
	// listener (AttachServers). A plain plan that injects a fault gets the
	// reconnecting client (Testbed.StartClient), one that injects nothing
	// the same client as its ST-TCP twin.
	Plain bool
	// HB is the heartbeat period (0 selects the 200 ms default) and Mutate
	// the adjustment every node's config gets, a rejoined backup's too.
	HB     time.Duration
	Mutate func(*sttcp.Config)
	// Clients are the conversations, in start order: each starts At after
	// the start of the run, and the first one's kind is also the servers'.
	Clients []Workload
	// Faults strike in slice order, each At after the start of the run.
	Faults []Fault
	// Horizon bounds the run in virtual time.
	Horizon time.Duration
	// Judge is whatever decides the run, registered on it.
	Judge Judge
}

// Judge is the one hook a plan's caller registers to watch the run and
// steer it beyond the invariant registry: chaos's guards, a lab script's
// expectations. Every func is optional, and each is called on the
// simulator's goroutine.
type Judge struct {
	// Watch is called once the servers run, before any client starts.
	Watch func(*Run)
	// Start and Fire, when set, are called from the simulator event at
	// client i's or fault i's instant in place of the plan starting it
	// (Run.StartClient) or striking it (Testbed.Arm): the judge may
	// decline. With Fire set the plan vets no fault up front, and only the
	// judge knows whether the run injected anything.
	Start func(i int)
	Fire  func(i int, f Fault)
	// Check is called at every stop of the run: its start, each client's
	// start, the horizon and every instant it asked for. over ends the run
	// there (the early-stop rule); next is the next instant it wants. Any
	// hook may also end the run at once with Testbed.Sim.Stop.
	Check func(*Run) (over bool, next time.Duration)
}

// Run is a finished run, and the run is the result: the testbed as the run
// left it, the clients whose conversations it carried, the invariants it
// broke and the instant of its first fault. What a demo prints is a value
// projection of it (failover, scenario); metrics, trace, timeline and
// report are read off Testbed by whoever was asked for them, never copied
// into a result type.
type Run struct {
	// Label names the variant inside a multi-run demo (Demo 4's
	// "no-cleanup", a Table 1 row); empty for single-run demos.
	Label   string
	Testbed *Testbed
	// Clients are the conversations the run started, in start order.
	Clients []app.Client
	// Violations are the invariants the run broke (invariants.go): the
	// live ones as they broke, then the end-of-run ones.
	Violations []Violation
	plan       Plan
	// injectAt is the instant of the first fault (zero without one).
	injectAt time.Time
	// nodes are the ST-TCP nodes the run started, a rejoined one included,
	// and eras the silence eras opened on them and on the crashed hosts.
	nodes []*sttcp.Node
	eras  []*silenceEra
}

// Run builds the testbed, starts ST-TCP and the servers, inserts the
// faults' events, then runs from stop to stop, starting each client as it
// falls due and asking the judge, until the horizon or the judge ends it
// (Check's over, or a judge's Sim.Stop). The invariant registry judges the
// run (Run.judge): every node it starts is watched from its first event,
// and the finished run is held to the end invariants, to gray-quiescence
// when it injected nothing a verdict answers, and to the gray verdicts
// over the faults that struck. Besides a run that could not be set up, the
// error reports a fault that failed as it struck and every violation; the
// run is returned with it.
func (p Plan) Run() (*Run, error) {
	tb := Build(p.Options)
	if !p.Plain {
		if err := tb.StartSTTCP(p.HB, p.Mutate); err != nil {
			return nil, err
		}
	}
	tb.reconnect = p.Plain && len(p.Faults) > 0
	tb.AttachServers(len(p.Clients) > 0 && p.Clients[0].Echo)
	run, j := &Run{Testbed: tb, plan: p}, p.Judge
	if j.Watch != nil {
		j.Watch(run)
	}
	if !p.Plain {
		for _, n := range []*sttcp.Node{tb.PrimaryNode, tb.BackupNode, tb.WitnessNode} {
			if n != nil {
				run.watch(n)
			}
		}
		for _, h := range []*cluster.Host{tb.Client, tb.Primary, tb.Backup, tb.Gateway, tb.LoggerHost, tb.WitnessHost} {
			if h != nil {
				run.hook(h)
			}
		}
		tb.rebooted, tb.booted = run.rebooted, run.booted
	}
	// The clients due now start before any event is inserted; a judge's
	// client starts are events, inserted ahead of the faults'.
	started := 0
	startDue := func() error {
		for ; started < len(p.Clients) && p.Clients[started].At <= tb.Sim.Elapsed(); started++ {
			if _, err := run.StartClient(started); err != nil {
				return err
			}
		}
		return nil
	}
	if j.Start != nil {
		for i, w := range p.Clients {
			tb.Sim.At(sim.Epoch.Add(w.At), func() { j.Start(i) })
		}
		started = len(p.Clients)
	} else if err := startDue(); err != nil {
		return nil, err
	}
	var errs []error
	for i, f := range p.Faults {
		strike := func() { j.Fire(i, f) }
		if j.Fire == nil {
			act, err := tb.Arm(f)
			if err != nil {
				return nil, err
			}
			strike = func() {
				if err := act(); err != nil {
					errs = append(errs, fmt.Errorf("%s at %v: %w", f.Kind, f.At, err))
				}
			}
		}
		tb.Sim.At(sim.Epoch.Add(f.At), strike)
	}
	for {
		next := p.Horizon
		if started < len(p.Clients) {
			next = min(next, p.Clients[started].At)
		}
		if j.Check != nil {
			over, want := j.Check(run)
			if over {
				break
			}
			if want > tb.Sim.Elapsed() {
				next = min(next, want)
			}
		}
		if tb.Sim.Elapsed() >= p.Horizon {
			break
		}
		if err := tb.Sim.RunUntil(sim.Epoch.Add(next)); errors.Is(err, sim.ErrStopped) {
			break
		} else if err != nil {
			return nil, err
		}
		if err := startDue(); err != nil {
			return nil, err
		}
	}
	if len(p.Faults) > 0 {
		run.injectAt = sim.Epoch.Add(p.Faults[0].At)
	}
	run.judge()
	for _, v := range run.Violations {
		errs = append(errs, v)
	}
	return run, errors.Join(errs...)
}

// StartClient starts the plan's client i now and adds it to Clients; they
// are named client/app, client2/app, ... in the order they start.
func (run *Run) StartClient(i int) (app.Client, error) {
	name := "client/app"
	if n := len(run.Clients); n > 0 {
		name = fmt.Sprintf("client%d/app", n+1)
	}
	cl, err := run.Testbed.StartClient(name, run.plan.Clients[i])
	if err == nil {
		run.Clients = append(run.Clients, cl)
	}
	return cl, err
}

// Shrink greedily minimises a failing plan: it tries the plan without one
// fault, the latest first, then without one client but the first, the
// latest first; fails re-runs a candidate and reports whether it still
// fails, and the first candidate that does is kept and the scan starts
// over, until no single removal fails or budget runs are spent (a budget
// of 0 or less spends none). fails must be deterministic, or the shrink
// will not converge; a caller pins whatever else its run depends on (the
// explorer its choice prefix) in the closure. Shrink returns the smallest
// failing plan found and the runs it spent.
func Shrink(p Plan, budget int, fails func(Plan) (bool, error)) (Plan, int, error) {
	runs := 0
	for {
		var cands []Plan
		for i := len(p.Faults) - 1; i >= 0; i-- {
			c := p
			c.Faults = slices.Delete(slices.Clone(p.Faults), i, i+1)
			cands = append(cands, c)
		}
		for i := len(p.Clients) - 1; i > 0; i-- {
			c := p
			c.Clients = slices.Delete(slices.Clone(p.Clients), i, i+1)
			cands = append(cands, c)
		}
		shrunk := false
		for _, c := range cands {
			if runs >= budget {
				return p, runs, nil
			}
			failed, err := fails(c)
			if err != nil {
				return p, runs, err
			}
			runs++
			if failed {
				p, shrunk = c, true
				break
			}
		}
		if !shrunk {
			return p, runs, nil
		}
	}
}
