package experiment

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// plan is what a single-testbed experiment is: start one client
// conversation against the replicated service, break things at chosen
// instants, watch the client. Every runner in this package is a plan
// literal plus the few lines that are its own.
type plan struct {
	Options
	// HB is the heartbeat period (0 selects the 200 ms default) and mutate
	// the adjustment both nodes' configs get.
	HB     time.Duration
	mutate func(*sttcp.Config)
	// Workload is the client conversation; its kind is also the servers'.
	Workload Workload
	// Faults are armed in slice order; At counts from the start of the run.
	Faults []Fault
	// Horizon bounds the run in virtual time.
	Horizon time.Duration
}

// Run is a finished run, and the run is the result: the testbed as the run
// left it, the client whose conversation it carried and the instant of its
// first fault. What a demo prints is a value projection of it (failover,
// scenario); metrics, trace, timeline and report are read off Testbed by
// whoever was asked for them, never copied into a result type.
type Run struct {
	// Label names the variant inside a multi-run demo (Demo 4's
	// "no-cleanup", a Table 1 row); empty for single-run demos.
	Label   string
	Testbed *Testbed
	client  app.Client
	// injectAt is the instant of the first fault (zero without one).
	injectAt time.Time
}

// run executes the plan: build the testbed, start ST-TCP, attach the
// servers, start the client, arm the faults, run to the horizon. A plan
// that injects nothing must end failure-free (Testbed.FailureFree).
func (p plan) run() (*Run, error) {
	tb := Build(p.Options)
	if err := tb.StartSTTCP(p.HB, p.mutate); err != nil {
		return nil, err
	}
	tb.AttachServers(p.Workload.Echo)
	cl, err := tb.StartClient("client/app", p.Workload)
	if err != nil {
		return nil, err
	}
	out := &Run{Testbed: tb, client: cl}
	for _, f := range p.Faults {
		if err := tb.Schedule(f); err != nil {
			return nil, err
		}
	}
	if err := tb.Run(p.Horizon); err != nil {
		return nil, err
	}
	if len(p.Faults) == 0 {
		return out, tb.FailureFree()
	}
	out.injectAt = sim.Epoch.Add(p.Faults[0].At)
	return out, nil
}

// completed returns an error naming what unless the client finished its
// workload with every byte verified.
func (run *Run) completed(what string) error {
	if app.Completed(run.client) {
		return nil
	}
	_, bad, err := run.client.Outcome()
	return fmt.Errorf("experiment: %s failed after %s (%d verify failures): %v", what, run.client.Progress(), bad, err)
}

// failover reads the run out as a FailoverResult: the client-side view
// (completion, the progress series of a download) joined with the
// detection and takeover instants of the span tree.
func (run *Run) failover() FailoverResult {
	_, bad, err := run.client.Outcome()
	r := FailoverResult{
		Scenario:       run.Label,
		CrashAt:        run.injectAt,
		Completed:      app.Completed(run.client),
		ClientErr:      err,
		VerifyFailures: bad,
	}
	if n := run.Testbed.PrimaryNode; n != nil { // the plain-TCP baseline has none
		r.HBPeriod = n.Config().HB.Period
	}
	switch cl := run.client.(type) {
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
		if gap, around := run.client.MaxGap(); !around.IsZero() && around.After(r.CrashAt.Add(-gap)) {
			r.FailoverTime = gap
		}
	}
	return r
}
