package experiment

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/baseline"
	"repro/internal/metrics"
	"repro/internal/sttcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// FailoverResult captures what one failover scenario produced, combining
// the server-side trace (when the failure was detected, when the backup
// took over) with the client-side view (the stall in the progress series —
// the paper's failover time).
type FailoverResult struct {
	// Scenario labels the variant inside a multi-run demo (e.g. Demo 4's
	// "no-cleanup" vs "with-cleanup"); empty for single-run demos.
	Scenario string

	HBPeriod time.Duration
	CrashAt  time.Time

	// SuspectAt is when the surviving node declared its peer failed;
	// TakeoverAt when the backup unsuppressed (zero if no takeover).
	SuspectAt  time.Time
	TakeoverAt time.Time

	// DetectionTime is SuspectAt - CrashAt.
	DetectionTime time.Duration
	// FailoverTime is the client-observed service gap around the crash:
	// detection plus the residual retransmission backoff (paper Demo 2).
	FailoverTime time.Duration

	// Completed reports whether the client finished its transfer with
	// zero verification failures.
	Completed      bool
	ClientErr      error
	BytesReceived  int64
	VerifyFailures int64
	TransferTime   time.Duration

	// Reconnects is non-zero only for the baseline client.
	Reconnects int

	// Progress is the client's delivery series (the demo GUI's pie
	// chart); StartAt anchors it and TotalBytes normalises it.
	Progress   []app.ProgressSample
	StartAt    time.Time
	TotalBytes int64

	Tracer *trace.Recorder

	// Anatomy is the span-derived phase decomposition of the failover
	// (detection / takeover / retransmission wait), nil when the run had
	// no takeover (baselines, clean runs, non-FT fallbacks).
	Anatomy *trace.FailoverAnatomy

	// Metrics is the testbed's metric snapshot at the end of the run.
	Metrics *metrics.Snapshot

	// Telemetry is the windowed time-series export, nil unless the run
	// sampled telemetry (Params.TelemetryWindow).
	Telemetry *telemetry.Timeline
}

func (r FailoverResult) String() string {
	return fmt.Sprintf("hb=%v detect=%v failover=%v completed=%v",
		r.HBPeriod, r.DetectionTime.Round(time.Millisecond), r.FailoverTime.Round(time.Millisecond), r.Completed)
}

// attachServers installs one application replica per ST-TCP node — echo
// servers when echo is set, data servers otherwise — named "<host>/app"
// and bound to the host's CPU clock: on the primary, the backup, and the
// witness when the topology has one. It returns the primary's and the
// backup's handles for fault injection.
func (tb *Testbed) attachServers(echo bool) (primary, backup app.Server) {
	install := func(n *sttcp.Node) app.Server {
		srv := app.NewServer(echo, n.Host().Name()+"/app", tb.Tracer, tb.Sim, n.Host().CPU())
		n.OnAccept = srv.Accept
		return srv
	}
	primary, backup = install(tb.PrimaryNode), install(tb.BackupNode)
	if tb.WitnessNode != nil {
		install(tb.WitnessNode)
	}
	return primary, backup
}

// fillFailoverTimes derives detection/takeover/gap metrics from the span
// tree: the trace.Anatomy analyzer decomposes each takeover into phases
// that provably reconcile with the client-observed stall (frames already
// in flight at the crash instant still arrive, so the stall begins when
// the pipeline drains, and ends at the first post-takeover delivery).
// Runs without a takeover — the baseline, non-FT fallbacks — keep the old
// client-side arithmetic: the largest stall in the progress series.
func fillFailoverTimes(r *FailoverResult, tb *Testbed, maxGap func() (time.Duration, time.Time)) {
	if e, ok := tb.Tracer.First(trace.KindSuspect); ok {
		r.SuspectAt = e.Time
		r.DetectionTime = e.Time.Sub(r.CrashAt)
	}
	if anatomies := tb.Tracer.Anatomy(); len(anatomies) > 0 {
		a := anatomies[0]
		r.Anatomy = &a
		r.SuspectAt = a.SuspectAt
		r.TakeoverAt = a.TakeoverAt
		r.DetectionTime = a.SuspectAt.Sub(r.CrashAt)
		if a.ClientStall > 0 {
			r.FailoverTime = a.ClientStall
		}
	}
	if r.FailoverTime == 0 {
		if gap, around := maxGap(); !around.IsZero() && around.After(r.CrashAt.Add(-gap)) {
			r.FailoverTime = gap
		}
	}
	r.Tracer = tb.Tracer
	r.Metrics = tb.Metrics.Snapshot()
	r.Telemetry = tb.Telemetry.Timeline()
}

// Demo1Result pairs the ST-TCP run with the conventional hot-backup
// baseline run on the identical workload and crash schedule.
type Demo1Result struct {
	STTCP    FailoverResult
	Baseline FailoverResult
}

// runDemo1 reproduces Demo 1: a client downloads transferSize bytes while
// the primary is crashed mid-transfer. Under ST-TCP the transfer survives
// with at worst a brief stall; under the baseline the client must detect
// the stall itself, reconnect to the backup server, and resume.
func runDemo1(seed int64, transferSize int64, crashAfter time.Duration, detail bool, telWindow time.Duration) (Demo1Result, error) {
	var out Demo1Result

	// --- ST-TCP run ---
	tb := Build(Options{Seed: seed, TraceDetail: detail, TelemetryWindow: telWindow})
	if err := tb.StartSTTCP(0, nil); err != nil {
		return out, err
	}
	tb.attachServers(false)
	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: transferSize, Tracer: tb.Tracer,
		Telemetry: tb.Telemetry.NewClientTrack(),
	})
	if err := cl.Start(); err != nil {
		return out, err
	}
	crashAt := tb.Sim.Now().Add(crashAfter)
	tb.Sim.At(crashAt, tb.Primary.CrashHW)
	if err := tb.Run(10 * time.Minute); err != nil {
		return out, err
	}
	out.STTCP = FailoverResult{
		HBPeriod:       tb.PrimaryNode.Config().HB.Period,
		CrashAt:        crashAt,
		Completed:      cl.Done && cl.Err == nil && cl.VerifyFailures == 0,
		ClientErr:      cl.Err,
		BytesReceived:  cl.Received,
		VerifyFailures: cl.VerifyFailures,
		TransferTime:   cl.Elapsed(),
		Progress:       cl.Samples,
		StartAt:        crashAt.Add(-crashAfter),
		TotalBytes:     transferSize,
	}
	fillFailoverTimes(&out.STTCP, tb, cl.MaxGap)

	// --- Baseline run: same workload, same crash schedule, no ST-TCP.
	// Each server listens on its own address; the client carries the
	// failover logic.
	tb2 := Build(Options{Seed: seed, TraceDetail: detail, TelemetryWindow: telWindow})
	pSrv := app.NewDataServer("primary/app", tb2.Tracer)
	bSrv := app.NewDataServer("backup/app", tb2.Tracer)
	pl, err := tb2.Primary.TCP().Listen(PrimaryAddr, ServicePort)
	if err != nil {
		return out, err
	}
	pl.OnEstablished = pSrv.Accept
	bl, err := tb2.Backup.TCP().Listen(BackupAddr, ServicePort)
	if err != nil {
		return out, err
	}
	bl.OnEstablished = bSrv.Accept

	rc := baseline.NewReconnectClient("client/app", tb2.Client.TCP(), transferSize, 3*time.Second, tb2.Tracer)
	rc.AddServer(PrimaryAddr, ServicePort)
	rc.AddServer(BackupAddr, ServicePort)
	if err := rc.Start(); err != nil {
		return out, err
	}
	crashAt2 := tb2.Sim.Now().Add(crashAfter)
	tb2.Sim.At(crashAt2, tb2.Primary.CrashHW)
	if err := tb2.Run(10 * time.Minute); err != nil {
		return out, err
	}
	out.Baseline = FailoverResult{
		CrashAt:        crashAt2,
		Completed:      rc.Done && rc.Err == nil && rc.VerifyFailures == 0,
		ClientErr:      rc.Err,
		BytesReceived:  rc.Received,
		VerifyFailures: rc.VerifyFailures,
		TransferTime:   rc.Elapsed(),
		Reconnects:     rc.Reconnects,
		Progress:       rc.Samples,
		StartAt:        crashAt2.Add(-crashAfter),
		TotalBytes:     transferSize,
	}
	fillFailoverTimes(&out.Baseline, tb2, rc.MaxGap)
	return out, nil
}

// runDemo2 reproduces Demo 2: the dependence of failover time on the
// heartbeat period. For each period the primary is crashed mid-transfer
// and the client-observed gap is measured. eager enables the
// retransmit-at-takeover extension (the paper's design waits for the next
// retransmission).
func runDemo2(seed int64, periods []time.Duration, eager, detail bool, telWindow time.Duration) ([]FailoverResult, error) {
	results := make([]FailoverResult, 0, len(periods))
	for i, p := range periods {
		tb := Build(Options{Seed: seed + int64(i), TraceDetail: detail, TelemetryWindow: telWindow})
		err := tb.StartSTTCP(p, func(c *sttcp.Config) {
			c.EagerTakeoverRetransmit = eager
		})
		if err != nil {
			return nil, err
		}
		tb.attachServers(false)
		const transferSize = 32 << 20
		cl := app.NewStreamClient(app.ClientConfig{
			Name: "client/app", Stack: tb.Client.TCP(),
			Service: ServiceAddr, Port: ServicePort,
			Request: transferSize, Tracer: tb.Tracer,
			Telemetry: tb.Telemetry.NewClientTrack(),
		})
		if err := cl.Start(); err != nil {
			return nil, err
		}
		crashAt := tb.Sim.Now().Add(700 * time.Millisecond)
		tb.Sim.At(crashAt, tb.Primary.CrashHW)
		if err := tb.Run(10 * time.Minute); err != nil {
			return nil, err
		}
		r := FailoverResult{
			HBPeriod:       p,
			CrashAt:        crashAt,
			Completed:      cl.Done && cl.Err == nil && cl.VerifyFailures == 0,
			ClientErr:      cl.Err,
			BytesReceived:  cl.Received,
			VerifyFailures: cl.VerifyFailures,
			TransferTime:   cl.Elapsed(),
			Progress:       cl.Samples,
			StartAt:        crashAt.Add(-700 * time.Millisecond),
			TotalBytes:     transferSize,
		}
		fillFailoverTimes(&r, tb, cl.MaxGap)
		results = append(results, r)
	}
	return results, nil
}

// runDemo2Upload is Demo 2 with the client as the data source (the paper's
// discussion covers "both the server and the client … sending data"): after
// the crash it is the *client's* TCP that retransmits with exponential
// backoff, and the post-detection gap is governed by the client's RTO
// schedule rather than the backup's.
func runDemo2Upload(seed int64, periods []time.Duration, detail bool, telWindow time.Duration) ([]FailoverResult, error) {
	results := make([]FailoverResult, 0, len(periods))
	for i, p := range periods {
		tb := Build(Options{Seed: seed + int64(i), TraceDetail: detail, TelemetryWindow: telWindow})
		if err := tb.StartSTTCP(p, nil); err != nil {
			return nil, err
		}
		tb.attachServers(true)

		cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 4000, 1024, tb.Tracer)
		cl.Gap = time.Millisecond
		cl.Telemetry = tb.Telemetry.NewClientTrack()
		if err := cl.Start(); err != nil {
			return nil, err
		}
		crashAt := tb.Sim.Now().Add(700 * time.Millisecond)
		tb.Sim.At(crashAt, tb.Primary.CrashHW)
		if err := tb.Run(10 * time.Minute); err != nil {
			return nil, err
		}
		r := FailoverResult{
			HBPeriod:       p,
			CrashAt:        crashAt,
			Completed:      cl.Done && cl.Err == nil && cl.VerifyFailures == 0,
			ClientErr:      cl.Err,
			BytesReceived:  int64(cl.RoundsDone),
			VerifyFailures: cl.VerifyFailures,
		}
		fillFailoverTimes(&r, tb, cl.MaxGap)
		results = append(results, r)
	}
	return results, nil
}

// Demo3Result compares failure-free transfer time with ST-TCP enabled and
// disabled.
type Demo3Result struct {
	Size        int64
	WithSTTCP   time.Duration
	WithoutTCP  time.Duration
	OverheadPct float64

	// Metrics and Tracer are the ST-TCP-enabled run's.
	Metrics *metrics.Snapshot
	Tracer  *trace.Recorder
}

func (r Demo3Result) String() string {
	return fmt.Sprintf("size=%dMiB with=%v without=%v overhead=%.2f%%",
		r.Size>>20, r.WithSTTCP.Round(time.Millisecond), r.WithoutTCP.Round(time.Millisecond), r.OverheadPct)
}

// runDemo3 reproduces Demo 3: a large failure-free transfer (the paper
// uses about 100 MB) timed with ST-TCP enabled and disabled; the point is
// that the overhead is negligible.
func runDemo3(seed int64, size int64) (Demo3Result, error) {
	out := Demo3Result{Size: size}

	// ST-TCP enabled.
	tb := Build(Options{Seed: seed})
	if err := tb.StartSTTCP(0, nil); err != nil {
		return out, err
	}
	tb.attachServers(false)
	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: size, Tracer: tb.Tracer,
	})
	if err := cl.Start(); err != nil {
		return out, err
	}
	if err := tb.Run(30 * time.Minute); err != nil {
		return out, err
	}
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		return out, fmt.Errorf("experiment: demo3 ST-TCP transfer failed: done=%v err=%v", cl.Done, cl.Err)
	}
	out.WithSTTCP = cl.Elapsed()
	out.Metrics = tb.Metrics.Snapshot()
	out.Tracer = tb.Tracer

	// ST-TCP disabled: plain server on the primary, same topology.
	tb2 := Build(Options{Seed: seed})
	srv := app.NewDataServer("primary/app", tb2.Tracer)
	tb2.Primary.Netstack().AddAlias(ServiceAddr)
	l, err := tb2.Primary.TCP().Listen(ServiceAddr, ServicePort)
	if err != nil {
		return out, err
	}
	l.OnEstablished = srv.Accept
	cl2 := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb2.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: size, Tracer: tb2.Tracer,
	})
	if err := cl2.Start(); err != nil {
		return out, err
	}
	if err := tb2.Run(30 * time.Minute); err != nil {
		return out, err
	}
	if !cl2.Done || cl2.Err != nil || cl2.VerifyFailures != 0 {
		return out, fmt.Errorf("experiment: demo3 plain transfer failed: done=%v err=%v", cl2.Done, cl2.Err)
	}
	out.WithoutTCP = cl2.Elapsed()
	out.OverheadPct = 100 * (out.WithSTTCP.Seconds() - out.WithoutTCP.Seconds()) / out.WithoutTCP.Seconds()
	return out, nil
}

// AppCrashMode selects Demo 4's two application-failure scenarios.
type AppCrashMode int

// Demo 4 scenarios (paper §4.2).
const (
	// CrashNoCleanup: the application dies but the socket stays open —
	// no FIN (§4.2.1).
	CrashNoCleanup AppCrashMode = iota + 1
	// CrashWithCleanup: the OS cleans the application up and closes the
	// socket — a FIN is generated and gated by MaxDelayFIN (§4.2.2).
	CrashWithCleanup
)

// String names the mode.
func (m AppCrashMode) String() string {
	switch m {
	case CrashNoCleanup:
		return "no-cleanup"
	case CrashWithCleanup:
		return "with-cleanup"
	default:
		return fmt.Sprintf("AppCrashMode(%d)", int(m))
	}
}

// runDemo4 reproduces Demo 4: the application on the primary crashes
// mid-transfer (in either of the two modes) while the OS and TCP layer stay
// up; ST-TCP detects it via the application-lag criteria and migrates the
// connection to the backup.
func runDemo4(seed int64, mode AppCrashMode, detail bool, telWindow time.Duration) (FailoverResult, error) {
	tb := Build(Options{Seed: seed, TraceDetail: detail, TelemetryWindow: telWindow})
	// Shrink MaxDelayFIN so the gated-FIN path is visible inside the
	// run; detection is still expected to come from the lag criteria
	// first.
	err := tb.StartSTTCP(0, func(c *sttcp.Config) {
		c.MaxDelayFIN = 20 * time.Second
	})
	if err != nil {
		return FailoverResult{}, err
	}
	primaryApp, _ := tb.attachServers(false)

	const transferSize = 32 << 20
	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: transferSize, Tracer: tb.Tracer,
		Telemetry: tb.Telemetry.NewClientTrack(),
	})
	if err := cl.Start(); err != nil {
		return FailoverResult{}, err
	}
	crashAt := tb.Sim.Now().Add(700 * time.Millisecond)
	tb.Sim.At(crashAt, func() {
		switch mode {
		case CrashNoCleanup:
			primaryApp.CrashSilent()
		case CrashWithCleanup:
			primaryApp.CrashCleanup(false)
		}
	})
	if err := tb.Run(10 * time.Minute); err != nil {
		return FailoverResult{}, err
	}
	r := FailoverResult{
		HBPeriod:       tb.BackupNode.Config().HB.Period,
		CrashAt:        crashAt,
		Completed:      cl.Done && cl.Err == nil && cl.VerifyFailures == 0,
		ClientErr:      cl.Err,
		BytesReceived:  cl.Received,
		VerifyFailures: cl.VerifyFailures,
		TransferTime:   cl.Elapsed(),
	}
	fillFailoverTimes(&r, tb, cl.MaxGap)
	return r, nil
}

// Demo5Result reports a NIC-failure scenario.
type Demo5Result struct {
	FailedAtPrimary bool
	FailAt          time.Time
	SuspectAt       time.Time
	DetectionTime   time.Duration
	// TookOver / NonFT report the recovery action (Table 1 row 4).
	TookOver bool
	NonFT    bool
	// ClientOK reports that the client workload completed verified.
	ClientOK  bool
	ClientErr error
	Tracer    *trace.Recorder
	Metrics   *metrics.Snapshot
	Telemetry *telemetry.Timeline
}

// runDemo5 reproduces Demo 5: a NIC failure at the primary (first part) or
// the backup (second part). The heartbeat on the IP link dies while the
// serial link stays up; the servers diagnose which side lost its NIC using
// the client-stream positions and gateway pings exchanged over the serial
// heartbeat.
func runDemo5(seed int64, failPrimary bool, detail bool, telWindow time.Duration) (Demo5Result, error) {
	out := Demo5Result{FailedAtPrimary: failPrimary}
	tb := Build(Options{Seed: seed, TraceDetail: detail, TelemetryWindow: telWindow})
	if err := tb.StartSTTCP(0, nil); err != nil {
		return out, err
	}
	tb.attachServers(true)

	// A long-running echo conversation keeps client data flowing in both
	// directions, which is what the §4.3 diagnosis consumes.
	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 2000, 1024, tb.Tracer)
	cl.Gap = 5 * time.Millisecond
	cl.Telemetry = tb.Telemetry.NewClientTrack()
	if err := cl.Start(); err != nil {
		return out, err
	}

	out.FailAt = tb.Sim.Now().Add(2 * time.Second)
	tb.Sim.At(out.FailAt, func() {
		if failPrimary {
			tb.Primary.FailNIC()
		} else {
			tb.Backup.FailNIC()
		}
	})
	if err := tb.Run(10 * time.Minute); err != nil {
		return out, err
	}
	if e, ok := tb.Tracer.First(trace.KindSuspect); ok {
		out.SuspectAt = e.Time
		out.DetectionTime = e.Time.Sub(out.FailAt)
	}
	out.TookOver = tb.BackupNode.State() == sttcp.StateTakenOver
	out.NonFT = tb.PrimaryNode.State() == sttcp.StateNonFT
	out.ClientOK = cl.Done && cl.Err == nil && cl.VerifyFailures == 0
	out.ClientErr = cl.Err
	out.Tracer = tb.Tracer
	out.Metrics = tb.Metrics.Snapshot()
	out.Telemetry = tb.Telemetry.Timeline()
	return out, nil
}
