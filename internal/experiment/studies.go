package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// The two-armed extended studies: each runs one plan without, then with,
// the mechanism under test, and prints the pair.

// pair runs both arms across the sweep workers.
func pair(p Params, arm func(o Options, with bool) (*Run, error)) ([]*Run, error) {
	return fanIdx(2, func(i int) (*Run, error) { return arm(p.sampled(), i == 1) })
}

// runBackupNICLoad is one arm of the "nicload" registry demo: a 16 MiB
// failure-free download, either with the enhanced design (§3: the backup
// receives only client→server traffic plus heartbeats) or with the
// pre-enhancement tap in which primary→client traffic also reaches the
// backup's NIC — the overload that motivated the design change.
func runBackupNICLoad(o Options, tapBothDirections bool) (*Run, error) {
	o.TapBothDirections = tapBothDirections
	return Plan{
		Options: o,
		// Behind the tap the client's ACKs queue after the primary's whole
		// output, so the backup's application trails by ~0.5 MB throughout:
		// allow it, or the byte-lag criterion convicts the old design.
		Mutate:  func(c *sttcp.Config) { c.AppMaxLagBytes = 4 << 20 },
		Clients: []Workload{Workload{Bytes: 16 << 20}},
		Horizon: 2 * time.Minute,
	}.Run()
}

// printNICLoad compares the backup NIC's receive volume under the two tap
// topologies.
func printNICLoad(arms []*Run) Printer {
	return func(w io.Writer, view View) error {
		enhanced, old := arms[0].Testbed.Backup.NIC().RxBytes, arms[1].Testbed.Backup.NIC().RxBytes
		fmt.Fprintf(w, "%-28s %8d KB received at backup NIC\n", "enhanced (HB state)", enhanced>>10)
		fmt.Fprintf(w, "%-28s %8d KB received at backup NIC (%.1fx)\n", "old (tap both directions)", old>>10, float64(old)/float64(enhanced))
		view(arms[1], nil)
		return nil
	}
}

// runWitnessConflict is one arm of the "witness" registry demo: a
// primary-side FIN conflict (the primary's application crashes with cleanup
// mid-echo; Table 1 row 3P), resolved pairwise or by the witness replica's
// majority vote (§4.2.2). The run must end in a takeover.
func runWitnessConflict(o Options, withWitness bool) (*Run, error) {
	o.WithWitness = withWitness
	p := AppCrashFINPrimary.plan(o)
	p.Horizon = 5 * time.Minute
	run, err := p.Run()
	if err != nil {
		return run, err
	}
	if !run.Testbed.Tracer.Has(trace.KindTakeover) {
		return run, fmt.Errorf("experiment: witness conflict: no takeover")
	}
	return run, nil
}

// printWitness reports how long each arm's conflict took to resolve: from
// injection to the takeover.
func printWitness(arms []*Run) Printer {
	return func(w io.Writer, view View) error {
		for i, arb := range []string{"pairwise (no witness)", "witness majority"} {
			e, _ := arms[i].Testbed.Tracer.First(trace.KindTakeover)
			fmt.Fprintf(w, "%-24s resolved the partition in %v\n", arb, e.Time.Sub(arms[i].injectAt).Round(time.Millisecond))
		}
		view(arms[1], nil)
		return nil
	}
}

// OutputCommitResult is a run read out as the §4.3 output-commit scenario:
// the backup misses client bytes, the primary acknowledges them and then
// crashes before the backup can retrieve them from the primary's hold
// buffer.
type OutputCommitResult struct {
	// TookOver reports the backup completed the takeover.
	TookOver bool
	// ClientDone reports the echo workload's fate: without a logger the
	// paper's design deems this failure unrecoverable and the session
	// wedges; with the logger the missing bytes are replayed.
	ClientDone bool
	// RoundsDone of Rounds echo rounds completed.
	RoundsDone, Rounds int
	// LoggerServed counts recovery datagrams the logger answered.
	LoggerServed int64
}

// runOutputCommit constructs the paper's unrecoverable case
// deterministically: during a continuous client upload, all frames toward
// the backup are dropped for 300 ms, and the primary is crashed 250 ms into
// that window — after it acknowledged client bytes the backup never saw,
// and before any recovery exchange could happen. With withLogger the
// optional logger machine taps the client stream and makes the bytes
// recoverable at takeover. One arm of the "output-commit" registry demo.
// Without the logger the paper deems the client unrecoverable: the arm
// must break client-integrity on that client and nothing else.
func runOutputCommit(o Options, withLogger bool) (*Run, error) {
	o.WithLogger = withLogger
	run, err := Plan{
		Options: o,
		Clients: []Workload{Workload{Echo: true, Rounds: 800, MsgSize: 1024, Gap: 2 * time.Millisecond}},
		Faults: []Fault{
			{At: 800 * time.Millisecond, Kind: FaultDrop, Host: "backup", Dur: 300 * time.Millisecond},
			crashPrimary(1050 * time.Millisecond),
		},
		Horizon: 2 * time.Minute,
	}.Run()
	if withLogger || run == nil {
		return run, err
	}
	if v := run.Violations; len(v) == 1 && v[0].Invariant == "client-integrity" && strings.HasPrefix(v[0].Detail, "client/app ") {
		return run, nil
	}
	return run, fmt.Errorf("experiment: output-commit without the logger broke %v, want client/app's client-integrity alone", run.Violations)
}

func (run *Run) outputCommit() OutputCommitResult {
	tb, cl := run.Testbed, run.Clients[0].(*app.EchoClient)
	out := OutputCommitResult{
		TookOver:   tb.BackupNode.State() == sttcp.StateTakenOver,
		ClientDone: app.Completed(cl),
		RoundsDone: cl.RoundsDone, Rounds: cl.Rounds,
	}
	if tb.Logger != nil {
		out.LoggerServed = tb.Logger.Served
	}
	return out
}

func printOutputCommit(arms []*Run) Printer {
	return func(w io.Writer, view View) error {
		for i, name := range []string{"without logger", "with logger"} {
			r := arms[i].outputCommit()
			outcome := fmt.Sprintf("wedged after %d/%d rounds (unrecoverable)", r.RoundsDone, r.Rounds)
			if r.ClientDone {
				outcome = fmt.Sprintf("all %d rounds completed (%d recovery datagrams)", r.RoundsDone, r.LoggerServed)
			}
			fmt.Fprintf(w, "%-28s %s\n", name, outcome)
		}
		view(arms[1], nil)
		return nil
	}
}
