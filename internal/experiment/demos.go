package experiment

import (
	"fmt"
	"io"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// FailoverResult is a run read out as a failover, combining the
// server-side trace (when the failure was detected, when the backup took
// over) with the client-side view (the stall in the progress series — the
// paper's failover time).
type FailoverResult struct {
	// Scenario is the run's Label.
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

	// Anatomy is the span-derived phase decomposition of the failover
	// (detection / takeover / retransmission wait), nil when the run had
	// no takeover (baselines, clean runs, non-FT fallbacks).
	Anatomy *trace.FailoverAnatomy
}

// failover reads the run out as a FailoverResult: the client-side view
// (completion, the progress series of a download) joined with the
// detection and takeover instants of the span tree.
func (run *Run) failover() FailoverResult {
	_, bad, err := run.Clients[0].Outcome()
	r := FailoverResult{
		Scenario:       run.Label,
		CrashAt:        run.injectAt,
		Completed:      app.Completed(run.Clients[0]),
		ClientErr:      err,
		VerifyFailures: bad,
	}
	if n := run.Testbed.PrimaryNode; n != nil { // the plain-TCP baseline has none
		r.HBPeriod = n.Config().HBPeriod
	}
	switch cl := run.Clients[0].(type) {
	case *app.ReconnectClient:
		r.BytesReceived, r.TransferTime, r.Reconnects = cl.Received, cl.Elapsed(), cl.Reconnects
		r.Progress, r.StartAt, r.TotalBytes = cl.Samples, sim.Epoch, cl.Request
	case *app.StreamClient:
		r.BytesReceived, r.TransferTime = cl.Received, cl.Elapsed()
		r.Progress, r.StartAt, r.TotalBytes = cl.Samples, sim.Epoch, cl.Request
	case *app.EchoClient:
		r.BytesReceived = int64(cl.RoundsDone) * int64(cl.MsgSize)
	}
	// The anatomy analyzer decomposes each takeover into phases that
	// provably reconcile with the client-observed stall (frames already in
	// flight at the crash instant still arrive, so the stall begins when the
	// pipeline drains, and ends at the first post-takeover delivery). Runs
	// without a takeover — the baseline, non-FT fallbacks, faults ridden
	// out — keep the client-side arithmetic: the largest stall in the
	// progress series.
	if e, ok := run.Testbed.Tracer.First(trace.KindSuspect); ok {
		r.SuspectAt = e.Time
		r.DetectionTime = e.Time.Sub(r.CrashAt)
	}
	if anatomies := run.Testbed.Tracer.Anatomy(); len(anatomies) > 0 {
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
		if gap, around := run.Clients[0].MaxGap(); !around.IsZero() && around.After(r.CrashAt.Add(-gap)) {
			r.FailoverTime = gap
		}
	}
	return r
}

// crashPrimary is the fault most runs inject: a HW/OS crash of the primary.
func crashPrimary(at time.Duration) Fault { return Fault{At: at, Kind: FaultCrash, Host: "primary"} }

// demo1CrashAfter is when Demo 1 crashes the primary, counted from the
// start of the transfer.
const demo1CrashAfter = 500 * time.Millisecond

// runDemo1 reproduces Demo 1: a client downloads transferSize bytes while
// the primary is crashed mid-transfer. Under ST-TCP the transfer survives
// with at worst a brief stall; under the baseline the client must detect
// the stall itself, reconnect to the backup server, and resume. It returns
// the ST-TCP run and the baseline run, the same plan on plain TCP.
func runDemo1(o Options, transferSize int64) (st, bl *Run, err error) {
	p := Plan{Options: o, Clients: []Workload{{Bytes: transferSize}},
		Faults: []Fault{crashPrimary(demo1CrashAfter)}, Horizon: 10 * time.Minute}
	if st, err = p.Run(); err != nil {
		return st, nil, err
	}
	p.Plain = true
	bl, err = p.Run()
	return st, bl, err
}

// printDemo1 renders the two transfers side by side and the demo GUI's pie
// chart flattened into a timeline (one glyph per 100 ms): the ST-TCP chart
// pauses briefly and keeps filling; the baseline chart flatlines until the
// client's own stall detector reconnects it.
func printDemo1(run, baseline *Run) Printer {
	return func(w io.Writer, view View) error {
		st, bl := run.failover(), baseline.failover()
		fmt.Fprintf(w, "workload: %d MiB download; primary HW crash mid-transfer\n\n", st.TotalBytes>>20)
		fmt.Fprintf(w, "%-28s %-14s %-14s %-12s %s\n", "", "transfer time", "client stall", "reconnects", "completed")
		for _, row := range []struct {
			name string
			FailoverResult
		}{{"ST-TCP", st}, {"plain TCP + hot backup", bl}} {
			fmt.Fprintf(w, "%-28s %-14v %-14v %-12d %v\n", row.name,
				row.TransferTime.Round(time.Millisecond), row.FailoverTime.Round(time.Millisecond), row.Reconnects, row.Completed)
		}
		fmt.Fprintf(w, "\nST-TCP detection time: %v; the client saw only a %v glitch and never reconnected.\n",
			st.DetectionTime.Round(time.Millisecond), st.FailoverTime.Round(time.Millisecond))
		pie := func(r FailoverResult) string {
			return FormatTimeline(ProgressTimeline(r.Progress, r.TotalBytes, r.StartAt, r.StartAt.Add(6*time.Second), 100*time.Millisecond))
		}
		fmt.Fprintln(w, "\npie-chart progression (one glyph per 100ms):")
		fmt.Fprintf(w, "ST-TCP:    %s\nbaseline:  %s\n", pie(st), pie(bl))
		view(run, st.Anatomy)
		return nil
	}
}

// demo2CrashAfter is when Demos 2 and 4 break the primary: mid-transfer.
const demo2CrashAfter = 700 * time.Millisecond

// runDemo2 reproduces Demo 2: the dependence of failover time on the
// heartbeat period. For each period (period i at seed+i) the primary is
// crashed mid-transfer and the client-observed gap is measured. eager
// enables the retransmit-at-takeover extension (the paper's design waits
// for the next retransmission).
func runDemo2(o Options, periods []time.Duration, eager bool) ([]*Run, error) {
	return sweepPeriods(o, periods, Plan{
		Mutate:  func(c *sttcp.Config) { c.EagerTakeoverRetransmit = eager },
		Clients: []Workload{Workload{Bytes: 32 << 20}},
	})
}

// runDemo2Upload is Demo 2 with the client as the data source (the paper's
// discussion covers "both the server and the client … sending data"): after
// the crash it is the *client's* TCP that retransmits with exponential
// backoff, and the post-detection gap is governed by the client's RTO
// schedule rather than the backup's.
func runDemo2Upload(o Options, periods []time.Duration) ([]*Run, error) {
	return sweepPeriods(o, periods, Plan{
		Clients: []Workload{Workload{Echo: true, Rounds: 4000, MsgSize: 1024, Gap: time.Millisecond}},
	})
}

// sweepPeriods runs p once per heartbeat period — period i at seed+i, the
// primary crashed demo2CrashAfter in.
func sweepPeriods(o Options, periods []time.Duration, p Plan) ([]*Run, error) {
	runs := make([]*Run, 0, len(periods))
	p.Faults, p.Horizon = []Fault{crashPrimary(demo2CrashAfter)}, 10*time.Minute
	for i, hb := range periods {
		p.Options, p.HB = o, hb
		p.Seed += int64(i)
		run, err := p.Run()
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// printFailovers renders runs as a table of failovers, one row a run.
func printFailovers(runs []*Run) Printer {
	return func(w io.Writer, view View) error {
		fmt.Fprintf(w, "%-14s %-14s %-12s %-12s %s\n", "scenario", "HB period", "detection", "failover", "completed")
		for _, run := range runs {
			r := run.failover()
			fmt.Fprintf(w, "%-14s %-14v %-12v %-12v %v\n", or(r.Scenario, "-"), r.HBPeriod,
				r.DetectionTime.Round(time.Millisecond), r.FailoverTime.Round(time.Millisecond), r.Completed)
			view(run, r.Anatomy)
		}
		return nil
	}
}

// Demo3Result compares failure-free transfer time with ST-TCP enabled and
// disabled.
type Demo3Result struct {
	Size        int64
	WithSTTCP   time.Duration
	WithoutTCP  time.Duration
	OverheadPct float64
}

func (r Demo3Result) String() string {
	return fmt.Sprintf("size=%dMiB with=%v without=%v overhead=%.2f%%",
		r.Size>>20, r.WithSTTCP.Round(time.Millisecond), r.WithoutTCP.Round(time.Millisecond), r.OverheadPct)
}

// runDemo3 reproduces Demo 3: a large failure-free transfer (the paper
// uses about 100 MB) timed with ST-TCP enabled and disabled (the same plan
// on plain TCP); the point is that the overhead is negligible. The run
// returned is the ST-TCP-enabled one.
func runDemo3(o Options, size int64) (*Run, Demo3Result, error) {
	out := Demo3Result{Size: size}
	// The plan injects nothing, so Run also holds the ST-TCP leg to the
	// failure-free postcondition: replication on from start to end.
	p := Plan{Options: o, Clients: []Workload{{Bytes: size}}, Horizon: 30 * time.Minute}
	run, err := p.Run()
	if err != nil {
		return run, out, err
	}
	if err := run.completed("demo3 ST-TCP transfer"); err != nil {
		return run, out, err
	}
	p.Plain = true
	plain, err := p.Run()
	if err != nil {
		return run, out, err
	}
	if err := plain.completed("demo3 plain transfer"); err != nil {
		return run, out, err
	}
	out.WithSTTCP = run.Clients[0].(*app.StreamClient).Elapsed()
	out.WithoutTCP = plain.Clients[0].(*app.StreamClient).Elapsed()
	out.OverheadPct = 100 * (out.WithSTTCP.Seconds() - out.WithoutTCP.Seconds()) / out.WithoutTCP.Seconds()
	return run, out, nil
}

func printDemo3(run *Run, o Demo3Result) Printer {
	return func(w io.Writer, view View) error {
		fmt.Fprintf(w, "workload: %d MiB failure-free download over 100 Mbit/s\n\n", o.Size>>20)
		fmt.Fprintf(w, "%-20s %v\n", "ST-TCP enabled:", o.WithSTTCP.Round(time.Millisecond))
		fmt.Fprintf(w, "%-20s %v\n", "ST-TCP disabled:", o.WithoutTCP.Round(time.Millisecond))
		fmt.Fprintf(w, "%-20s %.3f%%\n", "overhead:", o.OverheadPct)
		view(run, nil)
		return nil
	}
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

// appCrashModes names each mode and the fault it injects at the primary.
var appCrashModes = map[AppCrashMode]struct {
	name  string
	fault FaultKind
}{
	CrashNoCleanup:   {"no-cleanup", FaultAppCrashSilent},
	CrashWithCleanup: {"with-cleanup", FaultAppCrashCleanup},
}

// String names the mode.
func (m AppCrashMode) String() string { return appCrashModes[m].name }

// runDemo4 reproduces Demo 4: the application on the primary crashes
// mid-transfer (in either of the two modes) while the OS and TCP layer stay
// up; ST-TCP detects it via the application-lag criteria and migrates the
// connection to the backup.
func runDemo4(o Options, mode AppCrashMode) (*Run, error) {
	run, err := Plan{
		Options: o,
		// Shrink MaxDelayFIN so the gated-FIN path is visible inside the
		// run; detection is still expected to come from the lag criteria
		// first.
		Mutate:  func(c *sttcp.Config) { c.MaxDelayFIN = 20 * time.Second },
		Clients: []Workload{Workload{Bytes: 32 << 20}},
		Faults:  []Fault{{At: demo2CrashAfter, Kind: appCrashModes[mode].fault, Host: "primary"}},
		Horizon: 10 * time.Minute,
	}.Run()
	if err == nil {
		run.Label = mode.String()
	}
	return run, err
}

// runDemo5 reproduces Demo 5: a NIC failure at the primary (first part,
// NICFailPrimary) or the backup (second part, NICFailBackup). The heartbeat
// on the IP link dies while the serial link stays up; the servers diagnose
// which side lost its NIC using the client-stream positions and gateway
// pings exchanged over the serial heartbeat. It is Table 1 row 4 with a
// longer echo conversation — client data flowing in both directions is what
// the §4.3 diagnosis consumes — and the default FIN gate.
func runDemo5(o Options, at Scenario) (*Run, error) {
	p := at.plan(o)
	p.Mutate, p.Clients[0].Rounds = nil, 2000
	return p.Run()
}

// printDemo5 renders the two parts, the primary's NIC failure first.
func printDemo5(parts []*Run) Printer {
	return func(w io.Writer, view View) error {
		for i, part := range []struct{ where, action string }{
			{"primary", "backup took over the connection"},
			{"backup", "primary entered non-fault-tolerant mode"},
		} {
			s := parts[i].scenario()
			fmt.Fprintf(w, "NIC failure at the %s: detected in %v; %s; client unaffected: %v\n",
				part.where, s.DetectionTime.Round(time.Millisecond), part.action, s.ClientOK)
			view(parts[i], nil)
		}
		return nil
	}
}
