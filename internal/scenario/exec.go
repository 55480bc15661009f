package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/sttcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Check is the outcome of one expect statement.
type Check struct {
	Line   int
	Cond   string
	Passed bool
	Detail string
}

// Result is what executing a script produced.
type Result struct {
	Checks  []Check
	Clients []string // one status line per workload
	// Errors lists what went wrong at run time outside any expectation: a
	// fault injection that failed (rejoin with no takeover), or a script
	// that injects nothing ending other than failure-free.
	Errors []string
	Tracer *trace.Recorder
	// Report is the run-report artifact: seed, final metrics,
	// telemetry timeline (when the options sampled one), and any failover
	// anatomy the tracer assembled.
	Report *telemetry.Report
}

// OK reports whether every expectation passed and every scheduled fault
// actually took effect.
func (r *Result) OK() bool {
	if len(r.Errors) > 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.Passed {
			return false
		}
	}
	return true
}

// expect is one expect statement, compiled: it is judged once the run
// reaches at, over the clients the script started before it.
type expect struct {
	st      Statement
	at      time.Duration
	clients int
}

// Run executes a parsed script on a fresh simulated testbed. o supplies
// what a script cannot say (trace detail, a telemetry window); the script's
// options set the seed (42 by default) and the logger and witness machines.
func Run(sc *Script, o experiment.Options) (*Result, error) {
	p, expects, err := compile(sc, o)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	p.Judge.Check = func(run *experiment.Run) (bool, time.Duration) {
		for ; len(expects) > 0 && expects[0].at <= run.Testbed.Sim.Elapsed(); expects = expects[1:] {
			res.Checks = append(res.Checks, expects[0].judge(run))
		}
		if len(expects) > 0 {
			return false, expects[0].at
		}
		return false, p.Horizon
	}
	run, err := p.Run()
	if run == nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err != nil {
		res.Errors = strings.Split(err.Error(), "\n")
	}
	for i, cl := range run.Clients {
		done, bad, _ := cl.Outcome()
		gap, _ := cl.MaxGap()
		res.Clients = append(res.Clients, fmt.Sprintf("%s %d: %s, done=%v, max stall %v, verify failures %d",
			kind(cl), i, cl.Progress(), done, gap.Round(time.Millisecond), bad))
	}
	res.Tracer, res.Report = run.Testbed.Tracer, run.Testbed.Report("scenario", experiment.Params{Seed: p.Seed})
	return res, nil
}

// compile turns the script into the plan it runs, in one pass: a client
// starts, and an expect is judged, at the virtual time the runs before it
// reach, which is also how far back an `at` may not reach; every action,
// rejoin included, is a fault of the testbed's vocabulary, validated there.
func compile(sc *Script, o experiment.Options) (experiment.Plan, []expect, error) {
	p := experiment.Plan{Options: o}
	p.Seed = 42
	var maxDelayFIN time.Duration
	var expects []expect
	for _, st := range sc.Statements {
		switch st.Verb {
		case VerbOption:
			// Parse has checked every value.
			switch st.OptionName {
			case "hb":
				p.HB, _ = time.ParseDuration(st.OptionValue)
			case "maxdelayfin":
				maxDelayFIN, _ = time.ParseDuration(st.OptionValue)
			case "seed":
				p.Seed, _ = strconv.ParseInt(st.OptionValue, 10, 64)
			case "logger":
				p.WithLogger = true
			case "witness":
				p.WithWitness = true
			}
		case VerbClient:
			w := st.Client
			w.At = p.Horizon
			p.Clients = append(p.Clients, w)
		case VerbAt:
			if st.Fault.At < p.Horizon {
				return p, nil, fmt.Errorf("scenario: line %d: at %v is in the past: the run is already at %v", st.Line, st.Fault.At, p.Horizon)
			}
			p.Faults = append(p.Faults, st.Fault)
		case VerbRun:
			p.Horizon += st.RunFor
		case VerbExpect:
			expects = append(expects, expect{st: st, at: p.Horizon, clients: len(p.Clients)})
		}
	}
	p.Mutate = func(c *sttcp.Config) {
		if maxDelayFIN > 0 {
			c.MaxDelayFIN = maxDelayFIN
		}
	}
	return p, expects, nil
}

// judge evaluates the expectation on the run as it stands.
func (e expect) judge(run *experiment.Run) Check {
	tb := run.Testbed
	check := Check{Line: e.st.Line, Cond: e.st.Cond}
	switch e.st.Cond {
	case "takeover":
		check.Passed = tb.Tracer.Has(trace.KindTakeover)
		if !check.Passed {
			check.Detail = "no takeover event recorded"
		}
	case "non-ft":
		check.Passed = tb.Tracer.Has(trace.KindNonFTMode)
		if !check.Passed {
			check.Detail = "primary never entered non-fault-tolerant mode"
		}
	case "no-failover":
		check.Passed = !tb.Tracer.Has(trace.KindSuspect)
		if !check.Passed {
			ev, _ := tb.Tracer.First(trace.KindSuspect)
			check.Detail = "suspicion raised: " + ev.Message
		}
	case "recovery":
		check.Passed = tb.Tracer.Has(trace.KindByteRecovery)
		if !check.Passed {
			check.Detail = "no missed-byte recovery activity"
		}
	case "active":
		p, b := tb.PrimaryNode.State(), tb.BackupNode.State()
		check.Passed = p == sttcp.StateActive && b == sttcp.StateActive
		if !check.Passed {
			check.Detail = fmt.Sprintf("states %v/%v", p, b)
		}
	case "clients-done":
		var unfinished []string
		for i, cl := range run.Clients[:e.clients] {
			if !app.Completed(cl) {
				done, _, err := cl.Outcome()
				unfinished = append(unfinished, fmt.Sprintf("%s %d: done=%v err=%v (%s)", kind(cl), i, done, err, cl.Progress()))
			}
		}
		check.Passed, check.Detail = len(unfinished) == 0, strings.Join(unfinished, "; ")
	}
	return check
}

// kind names a client's workload as the script does.
func kind(cl app.Client) string {
	if _, echo := cl.(*app.EchoClient); echo {
		return "echo"
	}
	return "download"
}
