package chaos

import (
	"testing"
)

// FuzzGraySchedule hammers the gray-failure generator and harness with
// arbitrary seeds: every generated schedule must be structurally sound
// (sorted, client-start first, parameters inside their declared bounds),
// generation must be a pure function of the seed, and — the property the
// campaign asserts for its fixed seed range — the full run must satisfy
// every invariant in the registry, gray ones included. The checked-in
// corpus pins the seeds that found real bugs during development (stalled
// corruption windows, STONITHed drift observers, oscillating starve
// staleness).
func FuzzGraySchedule(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 30, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := Generate(CampaignGray, seed)
		if !sc.HasGray() {
			t.Fatalf("seed %d: no gray fault in a gray-campaign schedule:\n%v", seed, sc)
		}
		if len(sc.Events) == 0 || sc.Events[0].Kind != EvClientStart || sc.Events[0].At != 0 {
			t.Fatalf("seed %d: schedule must open with client-start@0:\n%v", seed, sc)
		}
		for i, e := range sc.Events {
			if i > 0 && e.At < sc.Events[i-1].At {
				t.Fatalf("seed %d: events out of order:\n%v", seed, sc)
			}
			if e.Rate < 0 || e.Rate > 1 {
				t.Fatalf("seed %d: event %d rate %v out of [0,1]:\n%v", seed, i, e.Rate, sc)
			}
			if e.Kind == EvStarveServing && e.Scale < 1 {
				t.Fatalf("seed %d: starve scale %v < 1:\n%v", seed, i, sc)
			}
			if e.Kind == EvClockSkew && e.Scale <= 0 {
				t.Fatalf("seed %d: skew scale %v not positive:\n%v", seed, e.Scale, sc)
			}
			if (e.Kind == EvNICFlap || e.Kind == EvSerialFlap) && e.Period <= 0 {
				t.Fatalf("seed %d: flap period %v not positive:\n%v", seed, e.Period, sc)
			}
		}
		if Generate(CampaignGray, seed).Signature() != sc.Signature() {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
		res, err := Run(sc, Options{})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d violated invariants:\n%s", seed, res.Report())
		}
	})
}
