package experiment

import (
	"testing"

	"repro/internal/sttcp"
)

// TestTable1Scenarios runs all ten single-failure cases of the paper's
// Table 1 and checks the recovery action in the rightmost column:
// failures at the primary end in a backup takeover, failures at the backup
// end with the primary in non-fault-tolerant mode, and temporary network
// failures are absorbed with both nodes still active. In every case the
// client workload must complete with verified bytes.
func TestTable1Scenarios(t *testing.T) {
	for i, sc := range Scenarios {
		sc := sc
		seed := int64(100 + i)
		t.Run(sc.String(), func(t *testing.T) {
			run, err := runScenario(Options{Seed: seed}, sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			res, tail := run.scenario(), tailStr(run.Testbed.Tracer.Dump())
			if !res.ClientOK {
				t.Fatalf("client workload failed: %v\n%s", res.ClientErr, tail)
			}
			switch {
			case sc.ExpectTakeover():
				if res.BackupState != sttcp.StateTakenOver {
					t.Fatalf("backup state %v, want taken-over (reason=%q)\n%s", res.BackupState, res.Reason, tail)
				}
				if !res.PrimaryDead {
					t.Fatalf("primary not powered down before takeover\n%s", tail)
				}
				if res.DetectionTime <= 0 {
					t.Fatalf("no suspect event recorded")
				}
				// A primary application that stops answering the echo is
				// convicted by the suspicion scorer on response staleness,
				// well before §4.2.1's AppMaxLagTime watermark (TestDemo4
				// pins that criterion).
				lagTime := run.Testbed.BackupNode.Config().AppMaxLagTime
				if (sc == AppCrashNoFINPrimary || sc == AppCrashFINPrimary) && res.DetectionTime >= lagTime {
					t.Errorf("detected in %v, want under AppMaxLagTime %v (reason=%q)", res.DetectionTime, lagTime, res.Reason)
				}
			case sc.ExpectNonFT():
				if res.PrimaryState != sttcp.StateNonFT {
					t.Fatalf("primary state %v, want non-FT (reason=%q)\n%s", res.PrimaryState, res.Reason, tail)
				}
				if !res.BackupDead {
					t.Fatalf("backup not shut down\n%s", tail)
				}
			default: // row 5: temporary network failure
				if res.PrimaryState != sttcp.StateActive || res.BackupState != sttcp.StateActive {
					t.Fatalf("row 5 must not fail over: primary=%v backup=%v (reason=%q)\n%s",
						res.PrimaryState, res.BackupState, res.Reason, tail)
				}
				if sc == TempNetFailBackup && res.RecoveryEvents == 0 {
					t.Fatalf("backup never ran missed-byte recovery\n%s", tail)
				}
			}
			if sc == AppCrashFINPrimary && !res.FINDelayed {
				t.Errorf("primary FIN was not gated (MaxDelayFIN machinery did not engage)")
			}
			if sc == AppCrashFINBackup && !res.FINSuppressed {
				t.Errorf("backup FIN disagreement was not flagged at the primary")
			}
		})
	}
}
