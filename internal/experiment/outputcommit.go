package experiment

import (
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

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
	tb := Build(Options{Seed: seed, WithLogger: withLogger})
	if err := tb.StartSTTCP(0, nil); err != nil {
		return out, err
	}
	tb.attachServers(true)

	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, out.Rounds, 1024, tb.Tracer)
	cl.Gap = 2 * time.Millisecond
	if err := cl.Start(); err != nil {
		return out, err
	}

	base := tb.Sim.Now()
	tb.Sim.At(base.Add(800*time.Millisecond), func() {
		tb.Tracer.Emit(trace.KindLinkDrop, "backup/eth0", "dropping inbound frames for 300ms")
		tb.BackupLink.DropFromBFor(300 * time.Millisecond)
	})
	tb.Sim.At(base.Add(1050*time.Millisecond), tb.Primary.CrashHW)

	if err := tb.Run(2 * time.Minute); err != nil {
		return out, err
	}
	out.TookOver = tb.BackupNode.State() == sttcp.StateTakenOver
	out.ClientDone = cl.Done && cl.Err == nil && cl.VerifyFailures == 0
	out.ClientErr = cl.Err
	out.RoundsDone = cl.RoundsDone
	if tb.Logger != nil {
		out.LoggerServed = tb.Logger.Served
	}
	out.Tracer = tb.Tracer
	return out, nil
}
