package scenario

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/sim"
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
	// telemetry timeline (when RunOptions.TelemetryWindow sampled one),
	// and any failover anatomy the tracer assembled.
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

// executor carries the run state.
type executor struct {
	tb      *experiment.Testbed
	lc      *experiment.Lifecycle
	clients []app.Client
	kind    string // "download" | "echo"
	faults  int    // at statements scheduled so far
	res     *Result
}

// RunOptions adjusts execution beyond what the script itself specifies.
type RunOptions struct {
	// TraceDetail enables per-segment trace events and segment-journey
	// spans, for runs whose trace will be exported (`sttcp lab`'s
	// -trace-out/-timeline flags set it).
	TraceDetail bool
	// TelemetryWindow, when > 0, samples every metric into windowed time
	// series at this period; the timeline lands in Result.Report.
	TelemetryWindow time.Duration
}

// Run executes a parsed script on a fresh simulated testbed.
func Run(sc *Script) (*Result, error) { return RunWith(sc, RunOptions{}) }

// RunWith is Run with execution options.
func RunWith(sc *Script, ro RunOptions) (*Result, error) {
	// Pass 1: options, and the workload kind the servers must speak.
	opts := experiment.Options{Seed: 42, TraceDetail: ro.TraceDetail, TelemetryWindow: ro.TelemetryWindow}
	hb := time.Duration(0)
	maxDelayFIN := time.Duration(0)
	suspicion := false
	kind := ""
	for _, st := range sc.Statements {
		switch st.Verb {
		case VerbOption:
			switch st.OptionName {
			case "hb":
				hb, _ = time.ParseDuration(st.OptionValue)
			case "maxdelayfin":
				maxDelayFIN, _ = time.ParseDuration(st.OptionValue)
			case "seed":
				opts.Seed, _ = strconv.ParseInt(st.OptionValue, 10, 64)
			case "logger":
				opts.WithLogger = true
			case "witness":
				opts.WithWitness = true
			case "suspicion":
				suspicion = true
			}
		case VerbClient:
			if kind == "" {
				kind = st.ClientKind
			}
		}
	}
	if kind == "" {
		kind = "download"
	}

	tb := experiment.Build(opts)
	err := tb.StartSTTCP(hb, func(c *sttcp.Config) {
		if maxDelayFIN > 0 {
			c.MaxDelayFIN = maxDelayFIN
		}
		if suspicion {
			c.Suspicion.Enabled = true
		}
	})
	if err != nil {
		return nil, err
	}
	tb.AttachServers(kind == "echo")
	ex := &executor{tb: tb, lc: experiment.NewLifecycle(tb), kind: kind, res: &Result{Tracer: tb.Tracer}}

	// Pass 2: execute in order.
	for _, st := range sc.Statements {
		var err error
		switch st.Verb {
		case VerbClient:
			err = ex.startClient(st)
		case VerbAt:
			err = ex.schedule(st)
		case VerbRun:
			err = tb.Run(st.RunFor)
		case VerbExpect:
			ex.evaluate(st)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", st.Line, err)
		}
	}
	if ex.faults == 0 {
		if err := tb.FailureFree(); err != nil {
			ex.res.Errors = append(ex.res.Errors, err.Error())
		}
	}
	for i, cl := range ex.clients {
		done, bad, _ := cl.Outcome()
		gap, _ := cl.MaxGap()
		ex.res.Clients = append(ex.res.Clients, fmt.Sprintf("%s %d: %s, done=%v, max stall %v, verify failures %d",
			kind, i, cl.Progress(), done, gap.Round(time.Millisecond), bad))
	}
	ex.res.Report = telemetry.NewReport("scenario", opts.Seed, nil,
		tb.Metrics.Snapshot(), tb.Telemetry.Timeline(), tb.Tracer.Anatomy())
	return ex.res, nil
}

func (ex *executor) startClient(st Statement) error {
	cl, err := ex.tb.StartClient("client/app", experiment.Workload{
		Echo: st.ClientKind == "echo", Bytes: st.Size,
		Rounds: st.Rounds, MsgSize: int(st.Size), Gap: 5 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	ex.clients = append(ex.clients, cl)
	return nil
}

// schedule arms one `at` statement: every action but rejoin is a fault of
// the testbed's vocabulary (experiment.Fault), validated there.
func (ex *executor) schedule(st Statement) error {
	if st.When < ex.tb.Sim.Elapsed() {
		return fmt.Errorf("at %v is in the past: the run is already at %v", st.When, ex.tb.Sim.Elapsed())
	}
	ex.faults++
	if st.Action == "rejoin" {
		ex.tb.Sim.At(sim.Epoch.Add(st.When), func() {
			if err := ex.lc.Reintegrate(ex.tb.NewReplica); err != nil {
				ex.res.Errors = append(ex.res.Errors,
					fmt.Sprintf("line %d: rejoin at %v: %v", st.Line, st.When, err))
			}
		})
		return nil
	}
	f := experiment.Fault{At: st.When, Kind: experiment.FaultKind(st.Action), Host: st.Target, Scale: st.Scale}
	if st.Action == "appcrash" {
		f.Kind += experiment.FaultKind("-" + st.Arg)
	} else if st.Arg != "" {
		f.Dur, _ = time.ParseDuration(st.Arg) // syntax checked by the parser
	}
	return ex.tb.Schedule(f)
}

func (ex *executor) evaluate(st Statement) {
	check := Check{Line: st.Line, Cond: st.Cond}
	switch st.Cond {
	case "takeover":
		check.Passed = ex.tb.Tracer.Has(trace.KindTakeover)
		if !check.Passed {
			check.Detail = "no takeover event recorded"
		}
	case "non-ft":
		check.Passed = ex.tb.Tracer.Has(trace.KindNonFTMode)
		if !check.Passed {
			check.Detail = "primary never entered non-fault-tolerant mode"
		}
	case "no-failover":
		check.Passed = !ex.tb.Tracer.Has(trace.KindSuspect)
		if !check.Passed {
			e, _ := ex.tb.Tracer.First(trace.KindSuspect)
			check.Detail = "suspicion raised: " + e.Message
		}
	case "recovery":
		check.Passed = ex.tb.Tracer.Has(trace.KindByteRecovery)
		if !check.Passed {
			check.Detail = "no missed-byte recovery activity"
		}
	case "active":
		p, b := ex.lc.PrimaryNode().State(), ex.lc.BackupNode().State()
		check.Passed = p == sttcp.StateActive && b == sttcp.StateActive
		if !check.Passed {
			check.Detail = fmt.Sprintf("states %v/%v", p, b)
		}
	case "clients-done":
		check.Passed = true
		for i, cl := range ex.clients {
			if !app.Completed(cl) {
				done, _, err := cl.Outcome()
				check.Passed = false
				check.Detail = fmt.Sprintf("%s %d: done=%v err=%v (%s)", ex.kind, i, done, err, cl.Progress())
			}
		}
	}
	ex.res.Checks = append(ex.res.Checks, check)
}
