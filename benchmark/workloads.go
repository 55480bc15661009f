package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// workload is one set of inputs. All four share one shape — conns clients
// dialled dialGap apart against the Figure 2 testbed, an optional primary
// crash, a closed loop on a single simulator goroutine — and differ in the
// sizes that decide which cost dominates.
type workload struct {
	name string
	// ops is how many distinct operations one pass holds. Operation i runs
	// on testbed seed+i; a pass is the unit the virtual-time figures are
	// taken over, so they repeat exactly for a seed.
	ops   int
	conns int
	// bytes is each stream client's download; rounds and msgSize, when
	// rounds > 0, replace it with an echo ping-pong.
	bytes   int64
	rounds  int
	msgSize int
	dialGap time.Duration
	// lanBps, hbPeriod and serialRate override the testbed defaults
	// (100 Mbit/s LAN, 200 ms heartbeat, 115.2 kbit/s serial) when non-zero.
	lanBps     int64
	hbPeriod   time.Duration
	serialRate int64
	// crash kills the primary crashAfter past the last dial, plus a seeded
	// phase in [0, crashWindow).
	crash       bool
	crashAfter  time.Duration
	crashWindow time.Duration
	// settle keeps simulating this long after the last client completes.
	settle time.Duration
	// slice, when > 0, times the event loop in steps of this much virtual
	// time, so that a long operation is taken at the fastest execution of
	// each step rather than of the whole (see measure). A step has to stay
	// long against a garbage collection, or the fastest one is the one
	// without.
	slice time.Duration
}

// lanJitter makes every virtual-time figure depend on the seed: each LAN
// frame is delayed by a seeded draw below it. It is under the 5.12 µs a
// minimum frame takes to serialise at 100 Mbit/s, so frames never reorder
// and the workloads stay loss- and retransmission-free until the crash.
const lanJitter = 2 * time.Microsecond

func workloads() []workload {
	return []workload{
		{
			// 12 MiB, not the 32 MiB of BENCH_N.segment_throughput: a
			// download that outlasts 1.4 virtual seconds trips the primary's
			// application-lag detector (the backup's replica position, one
			// 200 ms heartbeat old, trails a 100 Mbit/s stream by more than
			// the 64 KiB threshold), the backup is powered off, and the rest
			// of the transfer would be measured without replication.
			name: "bulk", ops: 1, conns: 1, bytes: 12 << 20,
			slice: 100 * time.Millisecond,
		},
		{
			// Not sliced: garbage collection is a tenth of this operation, and
			// a fastest-of-thirty per step sheds all of it.
			name: "echo", ops: 1, conns: 4, rounds: 20000, msgSize: 64,
		},
		{
			// 10 Mbit/s so a 640 KiB download spans the whole crash window:
			// the failover is the same (it is set by the heartbeat timeout
			// and the RTO schedule, not the line rate) but an operation
			// costs ~40 ms of host time instead of the ~550 ms a 6 MiB
			// download at 100 Mbit/s does, and a run holds hundreds.
			name: "failover", ops: 100, conns: 1, bytes: 640 << 10,
			lanBps: 10_000_000, hbPeriod: 200 * time.Millisecond,
			crash: true, crashAfter: 100 * time.Millisecond, crashWindow: 200 * time.Millisecond,
			settle: 2 * time.Second,
		},
		{
			// 1,000 connections, not the 2,000 of BENCH_N.conns_at_scale: an
			// operation costs 1.4 s of host time against 4.5 s, so a run holds
			// fifteen where it held five, and that is what steadies the
			// figure on a shared machine (README, "How a run measures"). The
			// event queue is still thousands deep and ST-TCP's per-connection
			// work still most of the time.
			name: "scale", ops: 1, conns: 1000, bytes: 32 << 10,
			dialGap: 500 * time.Microsecond, serialRate: 100_000_000,
			crash: true, crashAfter: time.Second,
			slice: 50 * time.Millisecond,
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// variant selects which rung of the ladder an operation runs on.
type variant struct {
	// plainTCP is the twin: a listener on the primary, no ST-TCP nodes,
	// no crash.
	plainTCP bool
	// sched decorates the event queue (the traced run's counter).
	sched func() sim.Scheduler
	// detail and telemetry switch the observers on.
	detail    bool
	telemetry time.Duration
	// horizon, when > 0, stops after that much virtual time without
	// checking completion: set-up runs the start of an operation.
	horizon time.Duration
}

// plan is a workload bound to a seed: everything an operation needs that is
// drawn from the seed rather than fixed by the workload.
type plan struct {
	w      workload
	seed   int64
	phases []time.Duration
}

func newPlan(w workload, seed int64) *plan {
	p := &plan{w: w, seed: seed, phases: make([]time.Duration, w.ops)}
	if w.crashWindow > 0 {
		// One phase per stratum of the window: the pass covers the window
		// evenly whatever the seed, and the seed places each phase inside
		// its stratum.
		rng := sim.NewRand(seed)
		stratum := float64(w.crashWindow) / float64(w.ops)
		for i := range p.phases {
			p.phases[i] = time.Duration((float64(i) + rng.Float64()) * stratum)
		}
	}
	return p
}

// opResult is what one operation measured and what it left behind.
type opResult struct {
	host time.Duration
	// steps splits host at the workload's slice boundaries: Build to the
	// first boundary, then one entry per slice of virtual time, the last up
	// to the end of the event loop. One entry, host itself, when unsliced.
	steps     []time.Duration
	mem       memCounters // allocation deltas over the timed region
	segments  int64       // TCP segments emitted by client, primary and backup
	fired     uint64
	virt      time.Duration // first dial to last completion
	payload   int64         // verified payload bytes
	detection time.Duration // crash to first suspicion, 0 without a crash
	attempted int
	failed    int
	failure   string
	tb        *experiment.Testbed
	streams   []*app.StreamClient
	echoes    []*app.EchoClient
	dialledAt []time.Time
	crashedAt time.Time
}

// fingerprint is the part of an operation that must repeat exactly when the
// same operation runs again in one process.
func (r *opResult) fingerprint() string {
	return fmt.Sprintf("segments=%d events=%d virt=%d payload=%d detection=%d steps=%d",
		r.segments, r.fired, r.virt, r.payload, r.detection, len(r.steps))
}

// latencies returns every client-visible response latency of the operation:
// an echo round, or for a download the gap between consecutive deliveries
// (the definition app.ClientConfig.Telemetry uses), the first measured from
// the dial.
func (r *opResult) latencies() []time.Duration {
	var out []time.Duration
	gaps := func(from time.Time, samples []app.ProgressSample) {
		for _, s := range samples {
			out = append(out, s.Time.Sub(from))
			from = s.Time
		}
	}
	for i, cl := range r.streams {
		gaps(r.dialledAt[i], cl.Samples)
	}
	for i, cl := range r.echoes {
		gaps(r.dialledAt[i], cl.Samples)
	}
	return out
}

// stalls returns each client's longest wait for the next delivery.
func (r *opResult) stalls() []time.Duration {
	var out []time.Duration
	for _, cl := range r.streams {
		gap, _ := cl.MaxGap()
		out = append(out, gap)
	}
	for _, cl := range r.echoes {
		gap, _ := cl.MaxGap()
		out = append(out, gap)
	}
	return out
}

// fail counts n failed operations and keeps the first reason.
func (r *opResult) fail(n int, format string, args ...any) {
	r.failed += n
	if r.failure == "" {
		r.failure = fmt.Sprintf(format, args...)
	}
}

// run executes operation op of the plan on the given rung. The timed region
// is what a harness pays per run: Build, StartSTTCP, the dials, and the
// event loop up to the end of the settle period.
func (p *plan) run(op int, v variant) *opResult {
	w := p.w
	r := &opResult{}
	runtime.GC()
	mem0 := readMem()
	t0 := hostNow()

	lan := netem.DefaultLANConfig()
	lan.Jitter = lanJitter
	if w.lanBps > 0 {
		lan.BitsPerSecond = w.lanBps
	}
	tb := experiment.Build(experiment.Options{
		Seed:            p.seed + int64(op),
		CustomScheduler: v.sched,
		LAN:             &lan,
		SerialRate:      w.serialRate,
		TraceDetail:     v.detail,
		TelemetryWindow: v.telemetry,
	})
	r.tb = tb
	if err := p.startService(tb, v); err != nil {
		r.fail(1, "start service: %v", err)
		return r
	}

	start := tb.Sim.Now()
	var lastDone time.Time
	done := 0
	onDone := func(error) {
		lastDone = tb.Sim.Now()
		if done++; done == w.conns {
			tb.Sim.Stop()
		}
	}
	r.dialledAt = make([]time.Time, w.conns)
	if w.rounds > 0 {
		r.echoes = make([]*app.EchoClient, w.conns)
	} else {
		r.streams = make([]*app.StreamClient, w.conns)
	}
	var dialErr error
	for i := 0; i < w.conns; i++ {
		r.dialledAt[i] = start.Add(time.Duration(i) * w.dialGap)
		tb.Sim.At(r.dialledAt[i], func() {
			var err error
			if w.rounds > 0 {
				cl := app.NewEchoClient("client/app", tb.Client.TCP(), experiment.ServiceAddr, experiment.ServicePort, w.rounds, w.msgSize, tb.Tracer)
				cl.OnDone = onDone
				r.echoes[i] = cl
				err = cl.Start()
			} else {
				cl := app.NewStreamClient(app.ClientConfig{
					Name: "client/app", Stack: tb.Client.TCP(),
					Service: experiment.ServiceAddr, Port: experiment.ServicePort,
					Request: w.bytes, Tracer: tb.Tracer,
					Telemetry: tb.Telemetry.NewClientTrack(),
				})
				cl.OnDone = onDone
				r.streams[i] = cl
				err = cl.Start()
			}
			if err != nil && dialErr == nil {
				dialErr = err
			}
		})
	}
	crash := w.crash && !v.plainTCP
	if crash {
		r.crashedAt = r.dialledAt[w.conns-1].Add(w.crashAfter + p.phases[op])
		tb.Sim.At(r.crashedAt, tb.Primary.CrashHW)
	}

	horizon := 30 * time.Minute
	if v.horizon > 0 {
		horizon = v.horizon
	}
	// advance runs the event loop for d more virtual time, pausing at every
	// slice boundary on the way to note the host time. The boundaries are
	// fixed in virtual time, so step k is the same work in every execution,
	// and pausing between events changes nothing the simulator does.
	stepFrom := t0
	advance := func(d time.Duration) error {
		deadline := tb.Sim.Now().Add(d)
		for w.slice > 0 {
			edge := start.Add(time.Duration(len(r.steps)+1) * w.slice)
			if !edge.Before(deadline) {
				break
			}
			if err := tb.Sim.RunUntil(edge); err != nil {
				return err
			}
			now := hostNow()
			r.steps = append(r.steps, now.Sub(stepFrom))
			stepFrom = now
		}
		return tb.Sim.RunUntil(deadline)
	}
	err := advance(horizon)
	if err == sim.ErrStopped {
		err = advance(w.settle)
	}
	// An operation whose transfers all drained before the crash landed
	// still has to show the takeover.
	for err == nil && crash && v.horizon == 0 &&
		tb.BackupNode.State() != sttcp.StateTakenOver && tb.Sim.Now().Sub(start) < horizon {
		err = advance(100 * time.Millisecond)
	}

	end := hostNow()
	r.host = end.Sub(t0)
	r.steps = append(r.steps, end.Sub(stepFrom))
	mem1 := readMem()
	r.mem = memCounters{mallocs: mem1.mallocs - mem0.mallocs, bytes: mem1.bytes - mem0.bytes}
	r.fired = tb.Sim.Fired()
	r.segments = tb.Client.TCP().Emitted + tb.Primary.TCP().Emitted + tb.Backup.TCP().Emitted
	if err != nil {
		r.fail(1, "simulator: %v", err)
		return r
	}
	if dialErr != nil {
		r.fail(1, "dial: %v", dialErr)
		return r
	}
	if v.horizon > 0 {
		return r // a set-up run: nothing completed, nothing to verify
	}
	r.virt = lastDone.Sub(start)
	p.verify(r, crash)
	return r
}

// startService brings up either the replicated service or its plain-TCP
// twin, with the workload's application attached.
func (p *plan) startService(tb *experiment.Testbed, v variant) error {
	echo := p.w.rounds > 0
	if v.plainTCP {
		tb.Primary.Netstack().AddAlias(experiment.ServiceAddr)
		l, err := tb.Primary.TCP().Listen(experiment.ServiceAddr, experiment.ServicePort)
		if err != nil {
			return err
		}
		if echo {
			l.OnEstablished = app.NewEchoServer("primary/app", tb.Tracer).Accept
		} else {
			l.OnEstablished = app.NewDataServer("primary/app", tb.Tracer).Accept
		}
		return nil
	}
	if err := tb.StartSTTCP(p.w.hbPeriod, nil); err != nil {
		return err
	}
	if echo {
		tb.PrimaryNode.OnAccept = app.NewEchoServer("primary/app", tb.Tracer).Accept
		tb.BackupNode.OnAccept = app.NewEchoServer("backup/app", tb.Tracer).Accept
	} else {
		tb.PrimaryNode.OnAccept = app.NewDataServer("primary/app", tb.Tracer).Accept
		tb.BackupNode.OnAccept = app.NewDataServer("backup/app", tb.Tracer).Accept
	}
	return nil
}

// verify is the correctness gate: every client done, error-free and
// pattern-verified, every echo round completed, and the backup in
// StateTakenOver where a crash was injected.
func (p *plan) verify(r *opResult, crash bool) {
	w := p.w
	for i, cl := range r.streams {
		r.attempted++
		switch {
		case cl == nil:
			r.fail(1, "client %d never dialled", i)
		case !cl.Done || cl.Err != nil:
			r.fail(1, "client %d: done=%v after %d/%d bytes: %v", i, cl.Done, cl.Received, w.bytes, cl.Err)
		case cl.VerifyFailures != 0 || cl.Received != w.bytes:
			r.fail(1, "client %d: %d pattern mismatches, %d/%d bytes", i, cl.VerifyFailures, cl.Received, w.bytes)
		default:
			r.payload += cl.Received
		}
	}
	for i, cl := range r.echoes {
		r.attempted += w.rounds
		if cl == nil {
			r.fail(w.rounds, "client %d never dialled", i)
			continue
		}
		if !cl.Done || cl.Err != nil || cl.RoundsDone != w.rounds {
			r.fail(w.rounds-cl.RoundsDone, "client %d: done=%v after %d/%d rounds: %v", i, cl.Done, cl.RoundsDone, w.rounds, cl.Err)
		}
		if cl.VerifyFailures != 0 {
			r.fail(1, "client %d: %d echo mismatches", i, cl.VerifyFailures)
		}
		r.payload += int64(cl.RoundsDone) * int64(w.msgSize)
	}
	if !crash && r.tb.BackupNode != nil {
		// Failure-free means the pair stayed fault-tolerant throughout.
		if n := r.tb.Tracer.Count(trace.KindSuspect) + r.tb.Tracer.Count(trace.KindNonFTMode); n > 0 {
			r.fail(1, "%d suspicion or non-FT events in a failure-free run", n)
		}
	}
	if crash {
		r.attempted++
		if r.tb.BackupNode.State() != sttcp.StateTakenOver {
			r.fail(1, "backup state %v after the crash, want taken-over", r.tb.BackupNode.State())
		}
		if e, ok := r.tb.Tracer.First(trace.KindSuspect); ok {
			r.detection = e.Time.Sub(r.crashedAt)
		} else {
			r.fail(1, "no suspicion event after the crash")
		}
	}
}
