package experiment

import (
	"testing"
	"time"
)

// TestGrayDemo checks both halves of the slow-not-dead demonstration:
// mild starvation must be ridden out without a failover, and heavy
// starvation must be convicted by the suspicion scorer within its
// accrual bound, with the client completing verified either way.
func TestGrayDemo(t *testing.T) {
	t.Run("mild", func(t *testing.T) {
		run, err := runGrayStarve(Options{Seed: 42}, 25)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		res := run.failover()
		if !res.Completed {
			t.Fatalf("client failed: %v", res.ClientErr)
		}
		if !res.SuspectAt.IsZero() || !res.TakeoverAt.IsZero() {
			t.Fatalf("mild starvation must be ridden out, got suspect=%v takeover=%v",
				res.SuspectAt, res.TakeoverAt)
		}
	})
	t.Run("convicting", func(t *testing.T) {
		run, err := runGrayStarve(Options{Seed: 42}, 500)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		res := run.failover()
		if !res.Completed {
			t.Fatalf("client failed: %v", res.ClientErr)
		}
		if res.TakeoverAt.IsZero() {
			t.Fatalf("heavy starvation never convicted the primary")
		}
		if res.Anatomy == nil {
			t.Fatalf("convicting run produced no failover anatomy")
		}
		// The scorer needs its hold past the SLO to accrue; anything far
		// beyond that bound means it lost evidence along the way.
		if res.DetectionTime > 4*time.Second {
			t.Errorf("detection took %v, want < 4s", res.DetectionTime)
		}
		t.Logf("convicted in %v, client stall %v", res.DetectionTime, res.FailoverTime)
	})
}
