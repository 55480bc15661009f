package experiment

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/trace"
)

// Stats summarises a sample of durations.
type Stats struct {
	N              int
	Min, Mean, Max time.Duration
}

func computeStats(samples []time.Duration) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return Stats{N: len(samples), Min: slices.Min(samples), Mean: sum / time.Duration(len(samples)), Max: slices.Max(samples)}
}

func (s Stats) String() string {
	return fmt.Sprintf("min %v / mean %v / max %v (n=%d)",
		s.Min.Round(time.Millisecond), s.Mean.Round(time.Millisecond), s.Max.Round(time.Millisecond), s.N)
}

// Demo2Distribution is the sampled failover behaviour at one heartbeat
// period.
type Demo2Distribution struct {
	HBPeriod  time.Duration
	Detection Stats
	Failover  Stats
}

// demo2DistSamples is how many crash instants the demo2-dist demo sweeps
// across one heartbeat period.
const demo2DistSamples = 8

// runDemo2Sampled measures the detection- and failover-time distribution
// at one heartbeat period by sweeping the crash instant across a full
// heartbeat interval. The phase of the crash relative to the heartbeat
// schedule is the dominant source of variance on a deterministic testbed:
// detection lands between (timeout) and (timeout + one period) after the
// crash, and the restart is further quantised by the retransmission
// backoff schedule. Each sample is an independent sealed testbed, so the
// sweep fans them across workers; the distribution is computed from the
// samples in phase order regardless of completion order; the recorder
// returned is the last sample's. Reached through the "demo2-dist" registry
// demo.
func runDemo2Sampled(seed int64, period time.Duration, samples, workers int) (Demo2Distribution, *trace.Recorder, error) {
	out := Demo2Distribution{HBPeriod: period}
	results, err := fanIdx(workers, samples, func(i int) (FailoverResult, error) {
		run, err := plan{
			Options:  Options{Seed: seed + int64(i)},
			HB:       period,
			Workload: Workload{Bytes: 32 << 20},
			Faults:   []Fault{crashPrimary(demo2CrashAfter + period*time.Duration(i)/time.Duration(samples))},
			Horizon:  10 * time.Minute,
		}.run()
		if err != nil {
			return FailoverResult{}, err
		}
		return run.failover(), run.completed(fmt.Sprintf("demo2 sample %d", i))
	})
	if err != nil {
		return out, nil, err
	}
	detects := make([]time.Duration, len(results))
	failovers := make([]time.Duration, len(results))
	for i, r := range results {
		detects[i], failovers[i] = r.DetectionTime, r.FailoverTime
	}
	out.Detection = computeStats(detects)
	out.Failover = computeStats(failovers)
	return out, results[len(results)-1].Tracer, nil
}
