// Package repro's top-level benchmarks regenerate every experiment of the
// paper "A System Demonstration of ST-TCP" (DSN 2005): the five planned
// demonstrations, the Table 1 failure matrix, the §3 serial-bandwidth
// budget, and two ablations (the tap-vs-heartbeat design change of §3 and
// the eager-takeover extension). Simulated quantities — failover time,
// detection time, overhead — are reported as custom benchmark metrics
// (suffixes like failover_ms); ns/op measures only how fast the simulator
// replays the scenario.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/experiment"
)

// runDemo resolves a demonstration through the experiment registry and runs
// it, failing the benchmark on any error.
func runDemo(b *testing.B, name string, p experiment.Params) experiment.Result {
	b.Helper()
	d, ok := experiment.DemoByName(name)
	if !ok {
		b.Fatalf("demo %q is not registered", name)
	}
	res, err := d.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkDemo1Failover regenerates Demo 1: the client-visible stall under
// ST-TCP versus the reconnect-based hot-backup baseline.
func BenchmarkDemo1Failover(b *testing.B) {
	for _, which := range []string{"sttcp", "baseline"} {
		b.Run(which, func(b *testing.B) {
			var stall, transfer time.Duration
			var reconnects int
			for i := 0; i < b.N; i++ {
				res := runDemo(b, "demo1", experiment.Params{Seed: int64(i + 1), Size: 16 << 20})
				r := res.Failovers[0]
				if which == "baseline" {
					r = *res.Baseline
				}
				if !r.Completed {
					b.Fatalf("transfer failed: %v", r.ClientErr)
				}
				stall += r.FailoverTime
				transfer += r.TransferTime
				reconnects += r.Reconnects
			}
			b.ReportMetric(float64(stall.Milliseconds())/float64(b.N), "stall_ms")
			b.ReportMetric(float64(transfer.Milliseconds())/float64(b.N), "transfer_ms")
			b.ReportMetric(float64(reconnects)/float64(b.N), "reconnects")
		})
	}
}

// BenchmarkDemo2FailoverVsHB regenerates Demo 2: failover time as a
// function of the heartbeat period (200 ms, 500 ms, 1 s).
func BenchmarkDemo2FailoverVsHB(b *testing.B) {
	for _, period := range []time.Duration{200 * time.Millisecond, 500 * time.Millisecond, time.Second} {
		b.Run("hb="+period.String(), func(b *testing.B) {
			var detect, failover time.Duration
			for i := 0; i < b.N; i++ {
				res := runDemo(b, "demo2", experiment.Params{
					Seed: int64(i + 1), Periods: []time.Duration{period},
				})
				r := res.Failovers[0]
				if !r.Completed {
					b.Fatalf("transfer failed: %v", r.ClientErr)
				}
				detect += r.DetectionTime
				failover += r.FailoverTime
			}
			b.ReportMetric(float64(detect.Milliseconds())/float64(b.N), "detect_ms")
			b.ReportMetric(float64(failover.Milliseconds())/float64(b.N), "failover_ms")
		})
	}
}

// BenchmarkDemo2UploadVsHB is the client-as-sender variant of Demo 2: the
// post-crash restart is driven by the client's retransmission backoff.
func BenchmarkDemo2UploadVsHB(b *testing.B) {
	for _, period := range []time.Duration{200 * time.Millisecond, time.Second} {
		b.Run("hb="+period.String(), func(b *testing.B) {
			var failover time.Duration
			for i := 0; i < b.N; i++ {
				res := runDemo(b, "demo2-upload", experiment.Params{
					Seed: int64(i + 1), Periods: []time.Duration{period},
				})
				r := res.Failovers[0]
				if !r.Completed {
					b.Fatalf("echo failed: %v", r.ClientErr)
				}
				failover += r.FailoverTime
			}
			b.ReportMetric(float64(failover.Milliseconds())/float64(b.N), "failover_ms")
		})
	}
}

// BenchmarkOutputCommitLogger regenerates the §4.3 output-commit scenario:
// the fraction of echo rounds completed without and with the logger.
func BenchmarkOutputCommitLogger(b *testing.B) {
	for _, mode := range []struct {
		name       string
		withLogger bool
	}{{"without-logger", false}, {"with-logger", true}} {
		b.Run(mode.name, func(b *testing.B) {
			rounds := 0
			completed := 0
			arm := 0
			if mode.withLogger {
				arm = 1
			}
			for i := 0; i < b.N; i++ {
				full := runDemo(b, "output-commit", experiment.Params{Seed: int64(i + 61)})
				res := full.OutputCommit[arm]
				rounds += res.RoundsDone
				if res.ClientDone {
					completed++
				}
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds")
			b.ReportMetric(float64(completed)/float64(b.N), "completed")
		})
	}
}

// BenchmarkDemo3Overhead regenerates Demo 3: failure-free transfer time
// with ST-TCP enabled vs disabled (the paper's ~100 MB file).
func BenchmarkDemo3Overhead(b *testing.B) {
	const size = 64 << 20 // large enough for a stable ratio, kept moderate for bench time
	var overhead float64
	var with, without time.Duration
	for i := 0; i < b.N; i++ {
		res := runDemo(b, "demo3", experiment.Params{Seed: int64(i + 1), Size: size})
		overhead += res.Overhead.OverheadPct
		with += res.Overhead.WithSTTCP
		without += res.Overhead.WithoutTCP
	}
	b.ReportMetric(overhead/float64(b.N), "overhead_pct")
	b.ReportMetric(float64(with.Milliseconds())/float64(b.N), "with_ms")
	b.ReportMetric(float64(without.Milliseconds())/float64(b.N), "without_ms")
}

// BenchmarkDemo4AppCrash regenerates Demo 4: both application-crash
// scenarios (no cleanup / OS cleanup with FIN).
func BenchmarkDemo4AppCrash(b *testing.B) {
	for _, mode := range []experiment.AppCrashMode{experiment.CrashNoCleanup, experiment.CrashWithCleanup} {
		b.Run(mode.String(), func(b *testing.B) {
			var detect, failover time.Duration
			for i := 0; i < b.N; i++ {
				res := runDemo(b, "demo4", experiment.Params{Seed: int64(i + 1), Mode: mode})
				r := res.Failovers[0]
				if !r.Completed {
					b.Fatalf("transfer failed: %v", r.ClientErr)
				}
				detect += r.DetectionTime
				failover += r.FailoverTime
			}
			b.ReportMetric(float64(detect.Milliseconds())/float64(b.N), "detect_ms")
			b.ReportMetric(float64(failover.Milliseconds())/float64(b.N), "failover_ms")
		})
	}
}

// BenchmarkDemo5NICFailure regenerates Demo 5: NIC failure at the primary
// (part one) and at the backup (part two).
func BenchmarkDemo5NICFailure(b *testing.B) {
	for _, part := range []struct {
		name    string
		primary bool
	}{{"primary", true}, {"backup", false}} {
		b.Run(part.name, func(b *testing.B) {
			var detect time.Duration
			for i := 0; i < b.N; i++ {
				res := runDemo(b, "demo5", experiment.Params{Seed: int64(i + 1)})
				for _, r := range res.NIC {
					if r.FailedAtPrimary != part.primary {
						continue
					}
					if !r.ClientOK {
						b.Fatalf("client failed: %v", r.ClientErr)
					}
					detect += r.DetectionTime
				}
			}
			b.ReportMetric(float64(detect.Milliseconds())/float64(b.N), "detect_ms")
		})
	}
}

// BenchmarkTable1Scenarios regenerates the full Table 1 failure matrix.
func BenchmarkTable1Scenarios(b *testing.B) {
	var detect time.Duration
	for i := 0; i < b.N; i++ {
		for _, row := range runDemo(b, "table1", experiment.Params{Seed: int64(i + 1)}).Table1 {
			if !row.ClientOK {
				b.Fatalf("%v: client failed: %v", row.Scenario, row.ClientErr)
			}
			detect += row.DetectionTime
		}
	}
	b.ReportMetric(float64(detect.Milliseconds())/float64(b.N), "detect_ms")
}

// BenchmarkHeartbeatSerialCapacity regenerates the §3 bandwidth budget:
// heartbeat state for N connections over the 115.2 kbit/s serial line at a
// 200 ms period, reporting queueing delay and saturation.
func BenchmarkHeartbeatSerialCapacity(b *testing.B) {
	for _, conns := range []int{1, 25, 50, 100, 150, 250} {
		conns := conns
		b.Run(benchName("conns", conns), func(b *testing.B) {
			var queue time.Duration
			saturated := 0
			for i := 0; i < b.N; i++ {
				full := runDemo(b, "capacity", experiment.Params{ConnCounts: []int{conns}})
				res := full.Capacity[0]
				queue += res.MaxQueueDelay
				if res.Saturated {
					saturated++
				}
			}
			b.ReportMetric(float64(queue.Milliseconds())/float64(b.N), "max_queue_ms")
			b.ReportMetric(float64(saturated)/float64(b.N), "saturated")
		})
	}
}

// BenchmarkAblationTapVsHB regenerates the §3 design change: backup NIC
// receive volume with the enhanced heartbeat state exchange versus the old
// design that tapped primary→client traffic. The registry demo runs both
// arms in one shot, so one benchmark reports both volumes.
func BenchmarkAblationTapVsHB(b *testing.B) {
	var enhanced, tap int64
	for i := 0; i < b.N; i++ {
		res := runDemo(b, "nicload", experiment.Params{Seed: int64(i + 1)})
		enhanced += res.NICLoad[0].BackupRxBytes
		tap += res.NICLoad[1].BackupRxBytes
	}
	b.ReportMetric(float64(enhanced)/float64(b.N)/1024, "enhanced_rx_KB")
	b.ReportMetric(float64(tap)/float64(b.N)/1024, "tap_rx_KB")
}

// BenchmarkAblationEagerTakeover compares the paper's
// wait-for-retransmission takeover with the eager-retransmit extension at
// a 1 s heartbeat period, where the residual backoff matters most.
func BenchmarkAblationEagerTakeover(b *testing.B) {
	for _, mode := range []struct {
		name  string
		eager bool
	}{{"faithful", false}, {"eager", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var failover time.Duration
			for i := 0; i < b.N; i++ {
				res := runDemo(b, "demo2", experiment.Params{
					Seed: int64(i + 1), Periods: []time.Duration{time.Second}, Eager: mode.eager,
				})
				failover += res.Failovers[0].FailoverTime
			}
			b.ReportMetric(float64(failover.Milliseconds())/float64(b.N), "failover_ms")
		})
	}
}

// BenchmarkWitnessMajority measures the §4.2.2 majority extension: time to
// resolve a primary-side FIN conflict (application crash with cleanup on an
// echo workload) with and without the witness replica. The registry demo
// runs both arms in one shot, so one benchmark reports both times.
func BenchmarkWitnessMajority(b *testing.B) {
	var pairwise, witness time.Duration
	for i := 0; i < b.N; i++ {
		res := runDemo(b, "witness", experiment.Params{Seed: int64(i + 101)})
		pairwise += res.Witness[0].Resolution
		witness += res.Witness[1].Resolution
	}
	b.ReportMetric(float64(pairwise.Milliseconds())/float64(b.N), "pairwise_ms")
	b.ReportMetric(float64(witness.Milliseconds())/float64(b.N), "witness_ms")
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return prefix + "=" + string(buf[i:])
}
