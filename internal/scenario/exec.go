package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/netem"
	"repro/internal/sttcp"
	"repro/internal/tcp"
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
	Errors  []string // fault injections that failed at run time (e.g. rejoin with no takeover)
	Tracer  *trace.Recorder
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
	tb        *experiment.Testbed
	lc        *experiment.Lifecycle
	start     time.Time
	downloads []*app.StreamClient
	echoes    []*app.EchoClient
	kind      string // "download" | "echo"
	mkApp     func(name string) func(*tcp.Conn)
	apps      map[string]app.Server
	res       *Result
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
	// Pass 1: options and workload-kind validation.
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
			if kind != "" && kind != st.ClientKind {
				return nil, errf(st.Line, "cannot mix %s and %s workloads (one service protocol per script)", kind, st.ClientKind)
			}
			kind = st.ClientKind
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
	ex := &executor{
		tb:    tb,
		lc:    experiment.NewLifecycle(tb),
		start: tb.Sim.Now(),
		kind:  kind,
		res:   &Result{Tracer: tb.Tracer},
	}
	ex.mkApp = func(name string) func(*tcp.Conn) {
		hostName := strings.TrimSuffix(name, "/app")
		host := tb.Backup
		if hostName == tb.Primary.Name() {
			host = tb.Primary
		}
		srv := ex.newServer(name, host)
		ex.apps[hostName] = srv
		return srv.Accept
	}
	ex.apps = map[string]app.Server{}
	ex.installApp(tb.PrimaryNode, "primary")
	ex.installApp(tb.BackupNode, "backup")
	if tb.WitnessNode != nil {
		ex.installApp(tb.WitnessNode, "witness")
	}

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
	ex.summariseClients()
	ex.res.Report = telemetry.NewReport("scenario", opts.Seed, nil,
		tb.Metrics.Snapshot(), tb.Telemetry.Timeline(), tb.Tracer.Anatomy())
	return ex.res, nil
}

// newServer binds the replica to its host's CPU clock, so `starve` slows
// the application and not just a number on the host.
func (ex *executor) newServer(name string, host *cluster.Host) app.Server {
	return app.NewServer(ex.kind == "echo", name, ex.tb.Tracer, ex.tb.Sim, host.CPU())
}

func (ex *executor) installApp(node *sttcp.Node, host string) {
	srv := ex.newServer(host+"/app", node.Host())
	ex.apps[host] = srv
	node.OnAccept = srv.Accept
}

func (ex *executor) startClient(st Statement) error {
	switch st.ClientKind {
	case "download":
		cl := app.NewStreamClient(app.ClientConfig{
			Name: "client/app", Stack: ex.tb.Client.TCP(),
			Service: experiment.ServiceAddr, Port: experiment.ServicePort,
			Request: st.Size, Tracer: ex.tb.Tracer,
			Telemetry: ex.tb.Telemetry.NewClientTrack(),
		})
		if err := cl.Start(); err != nil {
			return err
		}
		ex.downloads = append(ex.downloads, cl)
	case "echo":
		cl := app.NewEchoClient("client/app", ex.tb.Client.TCP(),
			experiment.ServiceAddr, experiment.ServicePort, st.Rounds, int(st.Size), ex.tb.Tracer)
		cl.Gap = 5 * time.Millisecond
		cl.Telemetry = ex.tb.Telemetry.NewClientTrack()
		if err := cl.Start(); err != nil {
			return err
		}
		ex.echoes = append(ex.echoes, cl)
	}
	return nil
}

func (ex *executor) hostByName(name string) (h hostLike, link *netem.Link, ok bool) {
	switch name {
	case "primary":
		return ex.tb.Primary, ex.tb.PrimaryLink, true
	case "backup":
		return ex.tb.Backup, ex.tb.BackupLink, true
	case "gateway":
		return ex.tb.Gateway, ex.tb.GatewayLink, true
	case "client":
		return ex.tb.Client, ex.tb.ClientLink, true
	case "witness":
		if ex.tb.WitnessHost == nil {
			return nil, nil, false
		}
		return ex.tb.WitnessHost, nil, true
	}
	return nil, nil, false
}

// hostLike is the slice of cluster.Host the executor uses.
type hostLike interface {
	CrashHW()
	FailNIC()
	Reboot()
	SetCPUScale(r float64)
}

func (ex *executor) schedule(st Statement) error {
	when := ex.start.Add(st.When)
	host, link, ok := hostLike(nil), (*netem.Link)(nil), true
	if st.Target != "" {
		host, link, ok = ex.hostByName(st.Target)
		if !ok {
			return fmt.Errorf("host %q not present in this topology", st.Target)
		}
	}
	action := st.Action
	arg := st.Arg

	// Validate the injection up front: a fault that silently does nothing
	// makes every later expectation meaningless, so refuse to schedule it.
	var dropFor, starveFor time.Duration
	switch action {
	case "appcrash":
		if _, ok := ex.apps[st.Target]; !ok {
			return fmt.Errorf("appcrash: host %q runs no server application", st.Target)
		}
	case "starve":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return fmt.Errorf("starve: bad duration %q: %w", arg, err)
		}
		if d <= 0 {
			return fmt.Errorf("starve: duration must be positive, got %v", d)
		}
		starveFor = d
	case "drop":
		if link == nil {
			return fmt.Errorf("drop: host %q has no ethernet link in this topology", st.Target)
		}
		d, err := time.ParseDuration(arg)
		if err != nil {
			return fmt.Errorf("drop: bad duration %q: %w", arg, err)
		}
		if d <= 0 {
			return fmt.Errorf("drop: duration must be positive, got %v", d)
		}
		dropFor = d
	}

	ex.tb.Sim.At(when, func() {
		switch action {
		case "crash":
			host.CrashHW()
		case "nicfail":
			host.FailNIC()
		case "reboot":
			host.Reboot()
		case "appcrash":
			srv := ex.apps[st.Target]
			if arg == "silent" {
				srv.CrashSilent()
			} else {
				srv.CrashCleanup(false)
			}
		case "starve":
			ex.tb.Tracer.Emit(trace.KindGeneric, st.Target, "CPU starved x%g for %v (slow-not-dead)", st.Scale, starveFor)
			host.SetCPUScale(st.Scale)
			ex.tb.Sim.At(when.Add(starveFor), func() { host.SetCPUScale(1) })
		case "drop":
			ex.tb.Tracer.Emit(trace.KindLinkDrop, st.Target+"/eth0", "dropping inbound frames for %v", dropFor)
			link.DropFromBFor(dropFor)
		case "serialcut":
			ex.tb.SerialPrimary.SetDown(true)
			ex.tb.SerialBackup.SetDown(true)
		case "rejoin":
			if err := ex.lc.Reintegrate(ex.mkApp); err != nil {
				ex.res.Errors = append(ex.res.Errors,
					fmt.Sprintf("line %d: rejoin at %v: %v", st.Line, st.When, err))
			}
		}
	})
	return nil
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
		for i, cl := range ex.downloads {
			if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
				check.Passed = false
				check.Detail = fmt.Sprintf("download %d: done=%v err=%v", i, cl.Done, cl.Err)
			}
		}
		for i, cl := range ex.echoes {
			if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
				check.Passed = false
				check.Detail = fmt.Sprintf("echo %d: done=%v err=%v rounds=%d", i, cl.Done, cl.Err, cl.RoundsDone)
			}
		}
	}
	ex.res.Checks = append(ex.res.Checks, check)
}

func (ex *executor) summariseClients() {
	for i, cl := range ex.downloads {
		gap, _ := cl.MaxGap()
		ex.res.Clients = append(ex.res.Clients, fmt.Sprintf(
			"download %d: %d/%d bytes, done=%v, max stall %v, verify failures %d",
			i, cl.Received, cl.Request, cl.Done, gap.Round(time.Millisecond), cl.VerifyFailures))
	}
	for i, cl := range ex.echoes {
		gap, _ := cl.MaxGap()
		ex.res.Clients = append(ex.res.Clients, fmt.Sprintf(
			"echo %d: %d/%d rounds, done=%v, max stall %v, verify failures %d",
			i, cl.RoundsDone, cl.Rounds, cl.Done, gap.Round(time.Millisecond), cl.VerifyFailures))
	}
}
