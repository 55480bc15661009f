package experiment

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// Scenario enumerates the ten single-failure cases of the paper's Table 1
// (five failure classes, each at the primary or the backup).
type Scenario int

// Table 1 scenarios.
const (
	HWCrashPrimary Scenario = iota + 1
	HWCrashBackup
	AppCrashNoFINPrimary
	AppCrashNoFINBackup
	AppCrashFINPrimary
	AppCrashFINBackup
	NICFailPrimary
	NICFailBackup
	TempNetFailBackup
	TempNetFailPrimary
)

// table1 is the paper's Table 1, one row per Scenario in enum order: the
// row's name, the fault that stands for it (injected table1InjectAt into
// the run), and the recovery action the paper lists, as the state it
// leaves the survivor in — the backup taken-over, the primary non-FT, or
// (row 5, absorbed) both still active.
var table1 = []struct {
	Scenario
	name string
	Fault
	expect sttcp.NodeState
}{
	{HWCrashPrimary, "1P hw/os crash @primary", Fault{Kind: FaultCrash, Host: "primary"}, sttcp.StateTakenOver},
	{HWCrashBackup, "1B hw/os crash @backup", Fault{Kind: FaultCrash, Host: "backup"}, sttcp.StateNonFT},
	{AppCrashNoFINPrimary, "2P app crash no-FIN @primary", Fault{Kind: FaultAppCrashSilent, Host: "primary"}, sttcp.StateTakenOver},
	{AppCrashNoFINBackup, "2B app crash no-FIN @backup", Fault{Kind: FaultAppCrashSilent, Host: "backup"}, sttcp.StateNonFT},
	{AppCrashFINPrimary, "3P app crash FIN @primary", Fault{Kind: FaultAppCrashCleanup, Host: "primary"}, sttcp.StateTakenOver},
	{AppCrashFINBackup, "3B app crash FIN @backup", Fault{Kind: FaultAppCrashCleanup, Host: "backup"}, sttcp.StateNonFT},
	{NICFailPrimary, "4P NIC failure @primary", Fault{Kind: FaultNICFail, Host: "primary"}, sttcp.StateTakenOver},
	{NICFailBackup, "4B NIC failure @backup", Fault{Kind: FaultNICFail, Host: "backup"}, sttcp.StateNonFT},
	{TempNetFailBackup, "5B temp net failure @backup", Fault{Kind: FaultDrop, Host: "backup", Dur: 300 * time.Millisecond}, sttcp.StateActive},
	{TempNetFailPrimary, "5P temp net failure @primary", Fault{Kind: FaultDrop, Host: "primary", Dur: 300 * time.Millisecond}, sttcp.StateActive},
}

// table1InjectAt is when every row's fault strikes.
const table1InjectAt = 2 * time.Second

// Scenarios lists all ten cases in Table 1 order.
var Scenarios = func() (all []Scenario) {
	for _, row := range table1 {
		all = append(all, row.Scenario)
	}
	return all
}()

// String names the scenario with its Table 1 row.
func (s Scenario) String() string {
	if s < 1 || int(s) > len(table1) {
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
	return table1[s-1].name
}

// ScenarioResult is a run read out as a Table 1 row: where the pair ended
// up and what the client saw.
type ScenarioResult struct {
	InjectAt time.Time

	// Final node states; the Table 1 recovery actions map to
	// (TakenOver at backup) or (NonFT at primary), with the failed side
	// powered down — except row 5, where both stay Active.
	PrimaryState sttcp.NodeState
	BackupState  sttcp.NodeState
	PrimaryDead  bool
	BackupDead   bool

	// DetectionTime is from injection to the surviving node's suspect
	// event (zero for row 5).
	DetectionTime time.Duration
	// Reason is the surviving node's recorded failure reason.
	Reason string

	// RecoveryEvents counts missed-byte recovery activity (row 5).
	RecoveryEvents int
	// FINDelayed/FINSuppressed report the §4.2.2 machinery engaging.
	FINDelayed    bool
	FINSuppressed bool

	// ClientOK reports the client workload completed with verified
	// bytes — the client-transparency claim.
	ClientOK bool
}

// plan is the row's experiment: an echo workload keeps client data flowing
// both ways, the row's fault strikes two seconds in, and the run continues
// until the workload finishes or times out.
func (s Scenario) plan(o Options) Plan {
	fault := table1[s-1].Fault
	fault.At = table1InjectAt
	return Plan{
		Options: o,
		Mutate:  func(c *sttcp.Config) { c.MaxDelayFIN = 15 * time.Second },
		Clients: []Workload{Workload{Echo: true, Rounds: 1500, MsgSize: 1024, Gap: 5 * time.Millisecond}},
		Faults:  []Fault{fault},
		Horizon: 10 * time.Minute,
	}
}

// runScenario executes one Table 1 case, labelled with its row. Reached
// through the "table1" registry demo.
func runScenario(o Options, sc Scenario) (*Run, error) {
	run, err := sc.plan(o).Run()
	if err == nil {
		run.Label = sc.String()
	}
	return run, err
}

// scenario reads the run out as a Table 1 row.
func (run *Run) scenario() ScenarioResult {
	tb := run.Testbed
	out := ScenarioResult{
		InjectAt:       run.injectAt,
		PrimaryState:   tb.PrimaryNode.State(),
		BackupState:    tb.BackupNode.State(),
		PrimaryDead:    tb.Primary.Crashed(),
		BackupDead:     tb.Backup.Crashed(),
		Reason:         or(tb.BackupNode.FailoverReason, tb.PrimaryNode.FailoverReason),
		RecoveryEvents: tb.Tracer.Count(trace.KindByteRecovery),
		FINDelayed:     tb.Tracer.Has(trace.KindFINDelayed),
		FINSuppressed:  tb.Tracer.Has(trace.KindFINSuppressed),
		ClientOK:       app.Completed(run.Clients[0]),
	}
	if e, ok := tb.Tracer.First(trace.KindSuspect); ok {
		out.DetectionTime = e.Time.Sub(out.InjectAt)
	}
	return out
}

// judge holds a run read out as r to the Table 1 row it is labelled with
// (runScenario labels each run with its row's name): the pair ended as the
// row's recovery action says — the backup taken over with the primary
// powered down, the primary non-FT with the backup powered down, or (row 5)
// both still active. nil when it did. The client's fate is the invariant
// registry's (Plan.Run).
func judge(label string, r ScenarioResult) error {
	row := slices.IndexFunc(Scenarios, func(sc Scenario) bool { return sc.String() == label })
	if row < 0 {
		return fmt.Errorf("%q is no Table 1 row", label)
	}
	expect := table1[row].expect
	held := r.PrimaryState == sttcp.StateActive && r.BackupState == sttcp.StateActive
	switch expect {
	case sttcp.StateTakenOver:
		held = r.BackupState == expect && r.PrimaryDead
	case sttcp.StateNonFT:
		held = r.PrimaryState == expect && r.BackupDead
	}
	if !held {
		return fmt.Errorf("%s: want the survivor %v, got primary %v (powered down %v) and backup %v (powered down %v)",
			label, expect, r.PrimaryState, r.PrimaryDead, r.BackupState, r.BackupDead)
	}
	return nil
}

// printTable1 renders the paper's Table 1: per scenario the detection
// latency, the recovery action taken, and whether the client's workload
// survived untouched — the one summary that can fail, on a row whose
// recovery is not the one its row lists.
func printTable1(runs []*Run) Printer {
	return func(w io.Writer, view View) error {
		// The action column is as wide as its longest entry, so 'client ok'
		// lines up on every row.
		rows, actions := make([]ScenarioResult, len(runs)), make([]string, len(runs))
		width := len("recovery action")
		for i, run := range runs {
			r := run.scenario()
			switch {
			case r.BackupState == sttcp.StateTakenOver:
				actions[i] = "backup took over; primary powered down"
			case r.PrimaryState == sttcp.StateNonFT:
				actions[i] = "primary in non-FT mode; backup shut down"
			case r.RecoveryEvents > 0:
				actions[i] = fmt.Sprintf("missed bytes recovered (%d events); no failover", r.RecoveryEvents)
			default:
				actions[i] = "absorbed by normal TCP retransmission; no failover"
			}
			rows[i], width = r, max(width, len(actions[i]))
		}
		fmt.Fprintf(w, "%-32s %-12s %-*s %s\n", "scenario", "detection", width, "recovery action", "client ok")
		var failed []error
		for i, r := range rows {
			det := "-"
			if r.DetectionTime > 0 {
				det = r.DetectionTime.Round(time.Millisecond).String()
			}
			fmt.Fprintf(w, "%-32s %-12s %-*s %v\n", runs[i].Label, det, width, actions[i], r.ClientOK)
			if err := judge(runs[i].Label, r); err != nil {
				failed = append(failed, err)
			}
			view(runs[i], nil)
		}
		fmt.Fprintln(w)
		if len(failed) > 0 {
			return fmt.Errorf("%d scenario(s) not masked as Table 1 says: %w", len(failed), errors.Join(failed...))
		}
		fmt.Fprintln(w, "All ten scenarios masked from the client.")
		return nil
	}
}
