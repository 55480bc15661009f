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

// Scenarios lists all ten cases in Table 1 order.
var Scenarios = []Scenario{
	HWCrashPrimary, HWCrashBackup,
	AppCrashNoFINPrimary, AppCrashNoFINBackup,
	AppCrashFINPrimary, AppCrashFINBackup,
	NICFailPrimary, NICFailBackup,
	TempNetFailBackup, TempNetFailPrimary,
}

var scenarioNames = map[Scenario]string{
	HWCrashPrimary:       "1P hw/os crash @primary",
	HWCrashBackup:        "1B hw/os crash @backup",
	AppCrashNoFINPrimary: "2P app crash no-FIN @primary",
	AppCrashNoFINBackup:  "2B app crash no-FIN @backup",
	AppCrashFINPrimary:   "3P app crash FIN @primary",
	AppCrashFINBackup:    "3B app crash FIN @backup",
	NICFailPrimary:       "4P NIC failure @primary",
	NICFailBackup:        "4B NIC failure @backup",
	TempNetFailBackup:    "5B temp net failure @backup",
	TempNetFailPrimary:   "5P temp net failure @primary",
}

// String names the scenario with its Table 1 row.
func (s Scenario) String() string {
	if n, ok := scenarioNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// AtPrimary reports whether the failure is injected at the primary.
func (s Scenario) AtPrimary() bool {
	switch s {
	case HWCrashPrimary, AppCrashNoFINPrimary, AppCrashFINPrimary, NICFailPrimary, TempNetFailPrimary:
		return true
	default:
		return false
	}
}

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

// ExpectTakeover reports whether the Table 1 recovery action for this
// scenario is a backup takeover (versus the primary entering non-FT mode,
// or no action for row 5).
func (s Scenario) ExpectTakeover() bool {
	switch s {
	case HWCrashPrimary, AppCrashNoFINPrimary, AppCrashFINPrimary, NICFailPrimary:
		return true
	default:
		return false
	}
}

// ExpectNonFT reports whether the action is the primary running
// non-fault-tolerantly.
func (s Scenario) ExpectNonFT() bool {
	switch s {
	case HWCrashBackup, AppCrashNoFINBackup, AppCrashFINBackup, NICFailBackup:
		return true
	default:
		return false
	}
}

// runScenario executes one Table 1 case: an echo workload keeps client
// data flowing both ways, the failure is injected two seconds in, and the
// run continues until the workload finishes or times out. Reached through
// the "table1" registry demo.
func runScenario(seed int64, sc Scenario, detail bool, telWindow time.Duration) (ScenarioResult, error) {
	out := ScenarioResult{Scenario: sc}
	tb := Build(Options{Seed: seed, TraceDetail: detail, TelemetryWindow: telWindow})
	err := tb.StartSTTCP(0, func(c *sttcp.Config) {
		c.MaxDelayFIN = 15 * time.Second
	})
	if err != nil {
		return out, err
	}
	pSrv, bSrv := tb.attachServers(true)

	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 1500, 1024, tb.Tracer)
	cl.Gap = 5 * time.Millisecond
	cl.Telemetry = tb.Telemetry.NewClientTrack()
	if err := cl.Start(); err != nil {
		return out, err
	}

	out.InjectAt = tb.Sim.Now().Add(2 * time.Second)
	tb.Sim.At(out.InjectAt, func() { inject(tb, pSrv, bSrv, sc) })

	if err := tb.Run(10 * time.Minute); err != nil {
		return out, err
	}

	out.PrimaryState = tb.PrimaryNode.State()
	out.BackupState = tb.BackupNode.State()
	out.PrimaryDead = tb.Primary.Crashed()
	out.BackupDead = tb.Backup.Crashed()
	if e, ok := tb.Tracer.First(trace.KindSuspect); ok {
		out.DetectionTime = e.Time.Sub(out.InjectAt)
	}
	if tb.PrimaryNode.FailoverReason != "" {
		out.Reason = tb.PrimaryNode.FailoverReason
	}
	if tb.BackupNode.FailoverReason != "" {
		out.Reason = tb.BackupNode.FailoverReason
	}
	out.RecoveryEvents = tb.Tracer.Count(trace.KindByteRecovery)
	out.FINDelayed = tb.Tracer.Has(trace.KindFINDelayed)
	out.FINSuppressed = tb.Tracer.Has(trace.KindFINSuppressed)
	out.ClientOK = cl.Done && cl.Err == nil && cl.VerifyFailures == 0
	out.ClientErr = cl.Err
	out.Tracer = tb.Tracer
	out.Metrics = tb.Metrics.Snapshot()
	out.Telemetry = tb.Telemetry.Timeline()
	return out, nil
}

func inject(tb *Testbed, pSrv, bSrv app.Server, sc Scenario) {
	switch sc {
	case HWCrashPrimary:
		tb.Primary.CrashHW()
	case HWCrashBackup:
		tb.Backup.CrashHW()
	case AppCrashNoFINPrimary:
		pSrv.CrashSilent()
	case AppCrashNoFINBackup:
		bSrv.CrashSilent()
	case AppCrashFINPrimary:
		pSrv.CrashCleanup(false)
	case AppCrashFINBackup:
		bSrv.CrashCleanup(false)
	case NICFailPrimary:
		tb.Primary.FailNIC()
	case NICFailBackup:
		tb.Backup.FailNIC()
	case TempNetFailBackup:
		tb.Tracer.Emit(trace.KindLinkDrop, "backup/eth0", "dropping inbound frames for 300ms")
		tb.BackupLink.DropFromBFor(300 * time.Millisecond)
	case TempNetFailPrimary:
		tb.Tracer.Emit(trace.KindLinkDrop, "primary/eth0", "dropping inbound frames for 300ms")
		tb.PrimaryLink.DropFromBFor(300 * time.Millisecond)
	}
}
