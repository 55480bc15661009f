package experiment

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/sweep"
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
// sweep fans them across workers; the runs come back in phase order
// regardless of completion order. Reached through the "demo2-dist" registry
// demo.
func runDemo2Sampled(o Options, period time.Duration, samples int) ([]*Run, error) {
	runs, errs := make([]*Run, samples), make([]error, samples)
	sweep.Run(samples, func(i int) {
		sample := o // each worker's own copy
		sample.Seed += int64(i)
		runs[i], errs[i] = Plan{
			Options: sample,
			HB:      period,
			Clients: []Workload{Workload{Bytes: 32 << 20}},
			Faults:  []Fault{crashPrimary(demo2CrashAfter + period*time.Duration(i)/time.Duration(samples))},
			Horizon: 10 * time.Minute,
		}.Run()
	})
	return runs, errors.Join(errs...)
}

// distribution reads the sampled runs out as one Demo2Distribution.
func distribution(runs []*Run) Demo2Distribution {
	detects := make([]time.Duration, len(runs))
	failovers := make([]time.Duration, len(runs))
	for i, run := range runs {
		r := run.failover()
		detects[i], failovers[i] = r.DetectionTime, r.FailoverTime
	}
	return Demo2Distribution{
		HBPeriod:  runs[0].Testbed.PrimaryNode.Config().HBPeriod,
		Detection: computeStats(detects),
		Failover:  computeStats(failovers),
	}
}

func printDistribution(runs []*Run) Printer {
	return func(w io.Writer, view View) error {
		d := distribution(runs)
		fmt.Fprintf(w, "crash-phase sweep at hb=%v\n", d.HBPeriod)
		fmt.Fprintf(w, "%-12s %v\n", "detection:", d.Detection)
		fmt.Fprintf(w, "%-12s %v\n", "failover:", d.Failover)
		view(runs[len(runs)-1], nil)
		return nil
	}
}
