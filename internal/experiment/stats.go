package experiment

import (
	"fmt"
	"time"

	"repro/internal/app"
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
	s := Stats{N: len(samples), Min: samples[0], Max: samples[0]}
	var sum time.Duration
	for _, d := range samples {
		sum += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
	}
	s.Mean = sum / time.Duration(len(samples))
	return s
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
	if samples < 1 {
		samples = 1
	}
	type sample struct {
		detect, failover time.Duration
		tracer           *trace.Recorder
	}
	results, err := fanIdx(workers, samples, func(i int) (sample, error) {
		offset := period * time.Duration(i) / time.Duration(samples)
		tb := Build(Options{Seed: seed + int64(i)})
		if err := tb.StartSTTCP(period, nil); err != nil {
			return sample{}, err
		}
		tb.attachServers(false)
		cl := app.NewStreamClient(app.ClientConfig{
			Name: "client/app", Stack: tb.Client.TCP(),
			Service: ServiceAddr, Port: ServicePort,
			Request: 32 << 20, Tracer: tb.Tracer,
		})
		if err := cl.Start(); err != nil {
			return sample{}, err
		}
		crashAt := tb.Sim.Now().Add(700*time.Millisecond + offset)
		tb.Sim.At(crashAt, tb.Primary.CrashHW)
		if err := tb.Run(10 * time.Minute); err != nil {
			return sample{}, err
		}
		if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
			return sample{}, fmt.Errorf("experiment: demo2 sample %d failed: %v", i, cl.Err)
		}
		r := FailoverResult{CrashAt: crashAt}
		fillFailoverTimes(&r, tb, cl.MaxGap)
		return sample{detect: r.DetectionTime, failover: r.FailoverTime, tracer: tb.Tracer}, nil
	})
	if err != nil {
		return out, nil, err
	}
	detects := make([]time.Duration, len(results))
	failovers := make([]time.Duration, len(results))
	for i, s := range results {
		detects[i] = s.detect
		failovers[i] = s.failover
	}
	out.Detection = computeStats(detects)
	out.Failover = computeStats(failovers)
	return out, results[len(results)-1].tracer, nil
}
