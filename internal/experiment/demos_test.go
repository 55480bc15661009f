package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sttcp"
	"repro/internal/trace"
)

// readFailovers reads each run out as a failover.
func readFailovers(runs []*Run) []FailoverResult {
	out := make([]FailoverResult, len(runs))
	for i, run := range runs {
		out[i] = run.failover()
	}
	return out
}

// TestDemo1 checks the paper's headline contrast: under ST-TCP the client
// completes across a primary crash with a sub-second-scale stall; under the
// conventional hot-backup baseline the client also completes but only by
// reconnecting, with a much larger disruption.
func TestDemo1(t *testing.T) {
	run, baseline, err := runDemo1(Options{Seed: 42}, 16<<20)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st, bl := run.failover(), baseline.failover()
	if !st.Completed {
		t.Fatal("ST-TCP client did not complete")
	}
	if !bl.Completed {
		t.Fatal("baseline client did not complete")
	}
	if bl.Reconnects == 0 {
		t.Fatalf("baseline client never reconnected — crash had no effect")
	}
	if st.Reconnects != 0 {
		t.Fatalf("ST-TCP client reconnected %d times — failover was not transparent", st.Reconnects)
	}
	if st.FailoverTime <= 0 {
		t.Fatalf("no client-side gap measured for ST-TCP")
	}
	if st.FailoverTime >= bl.FailoverTime {
		t.Fatalf("ST-TCP stall %v not smaller than baseline disruption %v", st.FailoverTime, bl.FailoverTime)
	}
	t.Logf("ST-TCP: detect=%v stall=%v; baseline: disruption=%v reconnects=%d",
		st.DetectionTime, st.FailoverTime, bl.FailoverTime, bl.Reconnects)
}

// TestDemo2 checks that failover time grows with the heartbeat period
// across the paper's three settings (200 ms, 500 ms, 1 s), and that
// detection time is roughly the heartbeat timeout (3 periods).
func TestDemo2(t *testing.T) {
	periods := []time.Duration{200 * time.Millisecond, 500 * time.Millisecond, time.Second}
	runs, err := runDemo2(Options{Seed: 7}, periods, false)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	results := readFailovers(runs)
	for i, r := range results {
		if !r.Completed {
			t.Fatalf("hb=%v: client did not complete", r.HBPeriod)
		}
		if r.DetectionTime < 2*r.HBPeriod || r.DetectionTime > 5*r.HBPeriod {
			t.Errorf("hb=%v: detection %v outside [2p,5p]", r.HBPeriod, r.DetectionTime)
		}
		if r.FailoverTime < r.DetectionTime {
			t.Errorf("hb=%v: failover %v below detection %v", r.HBPeriod, r.FailoverTime, r.DetectionTime)
		}
		if i > 0 && r.DetectionTime <= results[i-1].DetectionTime {
			t.Errorf("detection did not grow with HB period: %v (hb=%v) <= %v (hb=%v)",
				r.DetectionTime, r.HBPeriod, results[i-1].DetectionTime, results[i-1].HBPeriod)
		}
		t.Logf("hb=%v detect=%v failover=%v", r.HBPeriod, r.DetectionTime, r.FailoverTime)
	}
	if results[len(results)-1].FailoverTime <= results[0].FailoverTime {
		t.Errorf("failover time did not grow from hb=200ms (%v) to hb=1s (%v)",
			results[0].FailoverTime, results[len(results)-1].FailoverTime)
	}
}

// TestDemo2Eager checks the eager-retransmit extension strictly improves
// the 1 s-heartbeat failover versus the paper's wait-for-retransmission.
func TestDemo2Eager(t *testing.T) {
	periods := []time.Duration{time.Second}
	faithfulRuns, err := runDemo2(Options{Seed: 7}, periods, false)
	if err != nil {
		t.Fatalf("run faithful: %v", err)
	}
	eagerRuns, err := runDemo2(Options{Seed: 7}, periods, true)
	if err != nil {
		t.Fatalf("run eager: %v", err)
	}
	faithful, eager := readFailovers(faithfulRuns), readFailovers(eagerRuns)
	if !eager[0].Completed || !faithful[0].Completed {
		t.Fatalf("transfer did not complete: eager=%v faithful=%v", eager[0].Completed, faithful[0].Completed)
	}
	if eager[0].FailoverTime >= faithful[0].FailoverTime {
		t.Errorf("eager takeover (%v) not faster than faithful (%v)",
			eager[0].FailoverTime, faithful[0].FailoverTime)
	}
}

// TestDemo3 checks that ST-TCP's failure-free overhead on a large transfer
// is insignificant (the paper's claim; we allow a few percent).
func TestDemo3(t *testing.T) {
	size := int64(100 << 20)
	if testing.Short() {
		size = 16 << 20
	}
	_, res, err := runDemo3(Options{Seed: 11}, size)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.OverheadPct > 3.0 {
		t.Fatalf("overhead %.2f%% is not insignificant (with=%v without=%v)",
			res.OverheadPct, res.WithSTTCP, res.WithoutTCP)
	}
	t.Logf("%v", res)
}

// TestDemo4 checks both application-crash scenarios migrate the connection
// and the client completes.
func TestDemo4(t *testing.T) {
	for _, mode := range []AppCrashMode{CrashNoCleanup, CrashWithCleanup} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			run, err := runDemo4(Options{Seed: 13}, mode)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			res := run.failover()
			if !res.Completed {
				t.Fatal("client did not complete")
			}
			if res.TakeoverAt.IsZero() {
				t.Fatalf("no takeover happened")
			}
			// The §4.2.1 byte-lag criterion must be what fires, at the
			// backup, and its hold must run from the crash: the detection
			// used to read 700 ms for a 1 s hold, because the clock had been
			// (falsely) armed since the transfer began.
			const hold, hbPeriod = time.Second, 200 * time.Millisecond
			e, _ := run.Testbed.Tracer.First(trace.KindSuspect)
			if e.Component != "backup/sttcp" || !strings.Contains(e.Message, "peer app lags by") {
				t.Fatalf("detected by %s: %s; want the backup's byte-lag criterion", e.Component, e.Message)
			}
			if res.DetectionTime < hold || res.DetectionTime > hold+3*hbPeriod {
				t.Fatalf("detection %v after the crash, want within [%v, %v]", res.DetectionTime, hold, hold+3*hbPeriod)
			}
			t.Logf("mode=%v detect=%v failover=%v", mode, res.DetectionTime, res.FailoverTime)
		})
	}
}

// TestDemo5 checks both NIC-failure diagnoses: primary NIC death ends in a
// takeover, backup NIC death in non-FT mode, with the client unaffected.
func TestDemo5(t *testing.T) {
	t.Run("primary", func(t *testing.T) {
		run, err := runDemo5(Options{Seed: 17}, NICFailPrimary)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		res := run.scenario()
		if res.BackupState != sttcp.StateTakenOver {
			t.Fatalf("backup did not take over after primary NIC failure")
		}
		if !res.ClientOK {
			t.Fatal("client did not complete")
		}
		t.Logf("primary NIC fail: detect=%v", res.DetectionTime)
	})
	t.Run("backup", func(t *testing.T) {
		run, err := runDemo5(Options{Seed: 18}, NICFailBackup)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		res := run.scenario()
		if res.PrimaryState != sttcp.StateNonFT {
			t.Fatalf("primary did not enter non-FT mode after backup NIC failure")
		}
		if !res.ClientOK {
			t.Fatal("client did not complete")
		}
		t.Logf("backup NIC fail: detect=%v", res.DetectionTime)
	})
}
