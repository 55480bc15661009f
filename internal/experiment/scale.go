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

// ScaleResult reports a capacity-at-scale run: hundreds to thousands of
// concurrent ST-TCP connections crashed over to the backup mid-transfer.
// Every client must finish its full transfer with zero pattern-verification
// failures for the run to count.
type ScaleResult struct {
	Conns          int
	BytesPerClient int64
	// Crashed reports that a primary crash was injected (always, today).
	Crashed bool
	// TookOver reports the backup completed the takeover.
	TookOver bool
	// ClientsDone counts clients that finished their transfer cleanly.
	ClientsDone int
	// VerifyFailures sums pattern mismatches across all clients (must be 0).
	VerifyFailures int64
	// TotalBytes sums verified payload bytes across all clients.
	TotalBytes int64
	// SegmentsEmitted sums TCP segments transmitted by the client and both
	// servers — the numerator of the bench suite's segments/sec figure.
	SegmentsEmitted int64
	// DetectionTime is crash → suspect declaration.
	DetectionTime time.Duration
	// MaxStall is the largest delivery gap any client observed — at scale
	// the takeover must re-drive every connection's retransmission, so
	// this bounds the worst per-client failover experience.
	MaxStall time.Duration
	// VirtualElapsed is the simulated time from the first dial to the
	// last client's completion.
	VirtualElapsed time.Duration
	// Anatomy is the takeover's phase decomposition.
	Anatomy *trace.FailoverAnatomy
}

// runScaleFailover pushes the testbed to conns concurrent connections,
// each transferring bytesPerClient, and kills the primary once every
// connection is established and replicated. The heartbeat link runs at
// 100 Mbit/s — §3's advice for beyond ~100 connections, where
// per-connection heartbeat state saturates the 115.2 kbit/s serial line —
// and dials are staggered so the SYN burst doesn't serialise into one
// instant. Reached through the "scale" registry demo.
func runScaleFailover(o Options, conns int, bytesPerClient int64) (*Run, ScaleResult, error) {
	out := ScaleResult{Conns: conns, BytesPerClient: bytesPerClient, Crashed: true}
	o.SerialRate = 100_000_000
	// Stagger dials 500µs apart: connection setup overlaps with the
	// transfers of already-established clients, as a real arrival process
	// would, and the ARP/SYN machinery never sees all conns in one event.
	// One second past the last dial, every connection is established and
	// its state replicated through at least two heartbeats: the crash.
	const dialGap = 500 * time.Microsecond
	p := Plan{Options: o, Clients: make([]Workload, conns),
		Faults: []Fault{crashPrimary(time.Duration(conns)*dialGap + time.Second)}, Horizon: 30 * time.Minute}
	for i := range p.Clients {
		p.Clients[i] = Workload{At: time.Duration(i) * dialGap, Bytes: bytesPerClient}
	}
	// The run is over once every transfer has settled and the backup has
	// taken over, whichever comes last: tiny transfers drain before the
	// crash, and the post-run assertions want the settled cluster.
	var run *Run
	var lastDone time.Time
	done := 0
	settle := func() {
		if tb := run.Testbed; done == conns && tb.BackupNode.State() == sttcp.StateTakenOver {
			tb.Sim.Stop()
		}
	}
	p.Judge = Judge{
		Watch: func(r *Run) {
			run = r
			r.Testbed.BackupNode.OnStateChange = func(sttcp.NodeState) { settle() }
		},
		Start: func(i int) {
			if cl, err := run.StartClient(i); err == nil {
				cl.(*app.StreamClient).OnDone = func(error) {
					lastDone = run.Testbed.Sim.Now()
					done++
					settle()
				}
			}
		},
	}
	run, err := p.Run()
	if err != nil {
		return run, out, err
	}
	if !lastDone.IsZero() {
		out.VirtualElapsed = lastDone.Sub(sim.Epoch)
	}
	for i, c := range run.Clients {
		cl := c.(*app.StreamClient)
		out.VerifyFailures += cl.VerifyFailures
		out.TotalBytes += cl.Received
		if app.Completed(cl) {
			out.ClientsDone++
		} else if cl.Err != nil {
			return run, out, fmt.Errorf("experiment: scale client %d failed after %d/%d bytes: %w",
				i, cl.Received, bytesPerClient, cl.Err)
		}
		if gap, _ := cl.MaxGap(); gap > out.MaxStall {
			out.MaxStall = gap
		}
	}
	if out.ClientsDone != conns {
		return run, out, fmt.Errorf("experiment: only %d/%d scale clients completed (%d started)", out.ClientsDone, conns, len(run.Clients))
	}
	tb := run.Testbed
	out.TookOver = tb.BackupNode.State() == sttcp.StateTakenOver
	if !out.TookOver {
		return run, out, fmt.Errorf("experiment: scale run: backup state %v, want taken-over", tb.BackupNode.State())
	}
	if e, ok := tb.Tracer.First(trace.KindSuspect); ok {
		out.DetectionTime = e.Time.Sub(run.injectAt)
	}
	out.SegmentsEmitted = tb.Client.TCP().Emitted + tb.Primary.TCP().Emitted + tb.Backup.TCP().Emitted
	if anatomies := tb.Tracer.Anatomy(); len(anatomies) > 0 {
		out.Anatomy = &anatomies[0]
	}
	return run, out, nil
}

func printScale(run *Run, s ScaleResult) Printer {
	return func(w io.Writer, view View) error {
		fmt.Fprintf(w, "%d connections × %d KiB each; primary crash=%v\n\n", s.Conns, s.BytesPerClient>>10, s.Crashed)
		fmt.Fprintf(w, "%-22s %v\n", "backup took over:", s.TookOver)
		fmt.Fprintf(w, "%-22s %d (pattern-verify failures: %d)\n", "clients completed:", s.ClientsDone, s.VerifyFailures)
		fmt.Fprintf(w, "%-22s %d MiB in %v virtual\n", "payload:", s.TotalBytes>>20, s.VirtualElapsed.Round(time.Millisecond))
		fmt.Fprintf(w, "%-22s %v\n", "detection:", s.DetectionTime.Round(time.Millisecond))
		fmt.Fprintf(w, "%-22s %v\n", "max client stall:", s.MaxStall.Round(time.Millisecond))
		fmt.Fprintf(w, "%-22s %d\n", "segments emitted:", s.SegmentsEmitted)
		view(run, s.Anatomy)
		return nil
	}
}
