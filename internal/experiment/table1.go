package experiment

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/metrics"
	"repro/internal/sttcp"
	"repro/internal/telemetry"
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

// ExpectTakeover reports whether the Table 1 recovery action for this
// scenario is a backup takeover (versus the primary entering non-FT mode,
// or no action for row 5).
func (s Scenario) ExpectTakeover() bool { return table1[s-1].expect == sttcp.StateTakenOver }

// ExpectNonFT reports whether the action is the primary running
// non-fault-tolerantly.
func (s Scenario) ExpectNonFT() bool { return table1[s-1].expect == sttcp.StateNonFT }

// ScenarioResult records what a Table 1 scenario produced.
type ScenarioResult struct {
	Scenario Scenario
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
	ClientOK  bool
	ClientErr error

	Tracer *trace.Recorder
	// Metrics and Telemetry feed the run-report artifact; Telemetry is
	// nil unless a telemetry window was requested.
	Metrics   *metrics.Snapshot
	Telemetry *telemetry.Timeline
}

// plan is the row's experiment: an echo workload keeps client data flowing
// both ways, the row's fault strikes two seconds in, and the run continues
// until the workload finishes or times out.
func (s Scenario) plan(o Options) plan {
	fault := table1[s-1].Fault
	fault.At = table1InjectAt
	return plan{
		Options:  o,
		mutate:   func(c *sttcp.Config) { c.MaxDelayFIN = 15 * time.Second },
		Workload: Workload{Echo: true, Rounds: 1500, MsgSize: 1024, Gap: 5 * time.Millisecond},
		Faults:   []Fault{fault},
		Horizon:  10 * time.Minute,
	}
}

// runScenario executes one Table 1 case. Reached through the "table1"
// registry demo.
func runScenario(o Options, sc Scenario) (ScenarioResult, error) {
	run, err := sc.plan(o).run()
	if err != nil {
		return ScenarioResult{Scenario: sc}, err
	}
	out := run.scenario()
	out.Scenario = sc
	return out, nil
}

// scenario reads the run out as a Table 1 row: where the pair ended up
// and what the client saw.
func (o *outcome) scenario() ScenarioResult {
	tb := o.tb
	out := ScenarioResult{
		InjectAt:       o.injectAt,
		PrimaryState:   tb.PrimaryNode.State(),
		BackupState:    tb.BackupNode.State(),
		PrimaryDead:    tb.Primary.Crashed(),
		BackupDead:     tb.Backup.Crashed(),
		Reason:         or(tb.BackupNode.FailoverReason, tb.PrimaryNode.FailoverReason),
		RecoveryEvents: tb.Tracer.Count(trace.KindByteRecovery),
		FINDelayed:     tb.Tracer.Has(trace.KindFINDelayed),
		FINSuppressed:  tb.Tracer.Has(trace.KindFINSuppressed),
		ClientOK:       app.Completed(o.client),
		Tracer:         tb.Tracer,
		Metrics:        tb.Metrics.Snapshot(),
		Telemetry:      tb.Telemetry.Timeline(),
	}
	if e, ok := tb.Tracer.First(trace.KindSuspect); ok {
		out.DetectionTime = e.Time.Sub(out.InjectAt)
	}
	_, _, out.ClientErr = o.client.Outcome()
	return out
}
