package experiment

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// The two-armed extended studies: each runs one plan without, then with,
// the mechanism under test.

// pair runs both arms across the sweep workers; the recorder returned is
// the second arm's.
func pair[T any](p Params, arm func(seed int64, with bool) (T, error), tracer func(T) *trace.Recorder) ([]T, *trace.Recorder, error) {
	rs, err := fanIdx(p.Workers, 2, func(i int) (T, error) { return arm(p.Seed, i == 1) })
	if err != nil {
		return nil, nil, err
	}
	return rs, tracer(rs[1]), nil
}

// NICLoadResult is one arm of the "nicload" registry demo: the backup
// NIC's receive volume under one tap topology.
type NICLoadResult struct {
	TapBothDirections bool
	BackupRxBytes     int64
	Tracer            *trace.Recorder
}

// runBackupNICLoad measures the backup NIC's receive volume during a
// 16 MiB failure-free download, either with the enhanced design (§3: the
// backup receives only client→server traffic plus heartbeats) or with the
// pre-enhancement tap in which primary→client traffic also reaches the
// backup's NIC — the overload that motivated the design change. Reached
// through the "nicload" registry demo.
func runBackupNICLoad(seed int64, tapBothDirections bool) (NICLoadResult, error) {
	out := NICLoadResult{TapBothDirections: tapBothDirections}
	run, err := plan{
		Options: Options{Seed: seed, TapBothDirections: tapBothDirections},
		// Behind the tap the client's ACKs queue after the primary's whole
		// output, so the backup's application trails by ~0.5 MB throughout:
		// allow it, or the byte-lag criterion convicts the old design.
		mutate:   func(c *sttcp.Config) { c.AppMaxLagBytes = 4 << 20 },
		Workload: Workload{Bytes: 16 << 20},
		Horizon:  2 * time.Minute,
	}.run()
	if err != nil {
		return out, err
	}
	if err := run.completed(fmt.Sprintf("ablation transfer (tap=%v)", tapBothDirections)); err != nil {
		return out, err
	}
	out.BackupRxBytes, out.Tracer = run.tb.Backup.NIC().RxBytes, run.tb.Tracer
	return out, nil
}

// WitnessResult is one arm of the "witness" registry demo: how long a
// primary-side FIN conflict took to resolve, with or without the witness
// replica's majority vote.
type WitnessResult struct {
	WithWitness bool
	Resolution  time.Duration
	Tracer      *trace.Recorder
}

// runWitnessConflict measures how long a primary-side FIN conflict (the
// primary's application crashes with cleanup mid-echo; Table 1 row 3P)
// takes to resolve, with or without the witness replica's majority vote
// (§4.2.2): Resolution is the time from injection to the takeover. Reached
// through the "witness" registry demo.
func runWitnessConflict(seed int64, withWitness bool) (WitnessResult, error) {
	out := WitnessResult{WithWitness: withWitness}
	p := AppCrashFINPrimary.plan(Options{Seed: seed, WithWitness: withWitness})
	p.Horizon = 5 * time.Minute
	run, err := p.run()
	if err != nil {
		return out, err
	}
	if err := run.completed("witness conflict client"); err != nil {
		return out, err
	}
	e, ok := run.tb.Tracer.First(trace.KindTakeover)
	if !ok {
		return out, fmt.Errorf("experiment: witness conflict: no takeover")
	}
	out.Resolution, out.Tracer = e.Time.Sub(run.injectAt), run.tb.Tracer
	return out, nil
}

// OutputCommitResult reports the §4.3 output-commit scenario: the backup
// misses client bytes, the primary acknowledges them and then crashes
// before the backup can retrieve them from the primary's hold buffer.
type OutputCommitResult struct {
	WithLogger bool
	// TookOver reports the backup completed the takeover.
	TookOver bool
	// ClientDone / ClientErr report the echo workload's fate: without a
	// logger the paper's design deems this failure unrecoverable and the
	// session wedges; with the logger the missing bytes are replayed.
	ClientDone bool
	ClientErr  error
	// RoundsDone of Rounds echo rounds completed.
	RoundsDone, Rounds int
	// LoggerServed counts recovery datagrams the logger answered.
	LoggerServed int64
	Tracer       *trace.Recorder
}

// runOutputCommit constructs the paper's unrecoverable case
// deterministically: during a continuous client upload, all frames toward
// the backup are dropped for 300 ms, and the primary is crashed 250 ms into
// that window — after it acknowledged client bytes the backup never saw,
// and before any recovery exchange could happen. With withLogger the
// optional logger machine taps the client stream and makes the bytes
// recoverable at takeover. Reached through the "output-commit" registry
// demo.
func runOutputCommit(seed int64, withLogger bool) (OutputCommitResult, error) {
	out := OutputCommitResult{WithLogger: withLogger, Rounds: 800}
	run, err := plan{
		Options:  Options{Seed: seed, WithLogger: withLogger},
		Workload: Workload{Echo: true, Rounds: out.Rounds, MsgSize: 1024, Gap: 2 * time.Millisecond},
		Faults: []Fault{
			{At: 800 * time.Millisecond, Kind: FaultDrop, Host: "backup", Dur: 300 * time.Millisecond},
			crashPrimary(1050 * time.Millisecond),
		},
		Horizon: 2 * time.Minute,
	}.run()
	if err != nil {
		return out, err
	}
	tb, cl := run.tb, run.client.(*app.EchoClient)
	out.TookOver, out.Tracer = tb.BackupNode.State() == sttcp.StateTakenOver, tb.Tracer
	out.ClientDone, out.ClientErr, out.RoundsDone = app.Completed(cl), cl.Err, cl.RoundsDone
	if tb.Logger != nil {
		out.LoggerServed = tb.Logger.Served
	}
	return out, nil
}
