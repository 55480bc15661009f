package experiment

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// tick is the reconciliation tolerance for the anatomy identity: phases are
// derived from event timestamps of the same discrete-event run, so they must
// agree to within one scheduling quantum.
const tick = time.Microsecond

// stallAround returns the gap between the consecutive client progress
// samples that bracket at — the client-visible failover time computed
// independently of the span tree.
func stallAround(r FailoverResult, at time.Time) time.Duration {
	prev := r.StartAt
	for _, s := range r.Progress {
		if !prev.After(at) && !s.Time.Before(at) {
			return s.Time.Sub(prev)
		}
		prev = s.Time
	}
	return 0
}

// TestDemo2AnatomyPhasesSumToStall is the acceptance check for the failover
// anatomy analyzer: on Demo 2 at both a fast (100 ms) and a slow (1 s)
// heartbeat period, the span-derived phases — detection, takeover,
// retransmission wait — must sum to the client-visible failover time (after
// the pipeline-drain and delivery-latency corrections) within one sim tick.
func TestDemo2AnatomyPhasesSumToStall(t *testing.T) {
	runs, err := runDemo2(Options{Seed: 42}, []time.Duration{100 * time.Millisecond, time.Second}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	for _, run := range runs {
		r := run.failover()
		t.Run(r.HBPeriod.String(), func(t *testing.T) {
			if !r.Completed {
				t.Fatalf("transfer did not complete: %v", r.ClientErr)
			}
			if r.Anatomy == nil {
				t.Fatal("no failover anatomy recorded")
			}
			a := r.Anatomy

			// Every phase boundary must have been observed.
			for _, ts := range []struct {
				name string
				at   time.Time
			}{
				{"FaultAt", a.FaultAt}, {"SuspectAt", a.SuspectAt},
				{"TakeoverAt", a.TakeoverAt}, {"ResumeTxAt", a.ResumeTxAt},
				{"StallStart", a.StallStart}, {"StallEnd", a.StallEnd},
			} {
				if ts.at.IsZero() {
					t.Fatalf("anatomy boundary %s unobserved:\n%s", ts.name, a)
				}
			}

			// The identity: detection + takeover + retransmit-wait equals
			// the client stall corrected for frames already in flight at the
			// crash (pipeline drain) and the delivery latency of the first
			// post-takeover frame.
			if res := a.Residual(); res < -tick || res > tick {
				t.Errorf("phase sum does not reconcile: residual %v\n%s", res, a)
			}
			if a.Detection <= 0 || a.RetransmitWait < 0 || a.Takeover < 0 {
				t.Errorf("nonsensical phase durations:\n%s", a)
			}

			// ClientStall must match the stall computed independently from
			// the client's own progress series.
			gap := stallAround(r, a.TakeoverAt)
			if diff := gap - a.ClientStall; diff < -tick || diff > tick {
				t.Errorf("ClientStall %v != progress-series stall %v", a.ClientStall, gap)
			}
			// And it is what the demo reports as the failover time.
			if r.FailoverTime != a.ClientStall {
				t.Errorf("FailoverTime %v != ClientStall %v", r.FailoverTime, a.ClientStall)
			}

			// The takeover span must be causally rooted in the detection
			// evidence.
			if a.TakeoverSpan == 0 || !run.Testbed.Tracer.CausallyLinked(a.TakeoverSpan, trace.KindSuspect) {
				t.Errorf("takeover span #%d not causally linked to suspect evidence", a.TakeoverSpan)
			}
		})
	}
}
