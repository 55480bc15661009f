package chaos

import (
	"testing"

	"repro/internal/experiment"
)

// FuzzGraySchedule hammers the gray-failure generator and harness with
// arbitrary seeds: every drawn plan must be structurally sound
// (sorted, client at 0, parameters inside their declared bounds),
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
		p := Generate(CampaignGray, seed)
		if grayClass(p) == "" {
			t.Fatalf("seed %d: no gray fault in a gray-campaign plan:\n%s", seed, Describe(p))
		}
		if p.Clients[0].At != 0 {
			t.Fatalf("seed %d: plan must open with its client at 0:\n%s", seed, Describe(p))
		}
		for i, f := range p.Faults {
			if i > 0 && f.At < p.Faults[i-1].At {
				t.Fatalf("seed %d: faults out of order:\n%s", seed, Describe(p))
			}
			if f.Rate < 0 || f.Rate > 1 {
				t.Fatalf("seed %d: fault %d rate %v out of [0,1]:\n%s", seed, i, f.Rate, Describe(p))
			}
			if f.Kind == experiment.FaultStarve && f.Scale < 1 {
				t.Fatalf("seed %d: starve scale %v < 1:\n%s", seed, f.Scale, Describe(p))
			}
			if f.Kind == experiment.FaultClockSkew && f.Scale <= 0 {
				t.Fatalf("seed %d: skew scale %v not positive:\n%s", seed, f.Scale, Describe(p))
			}
			if (f.Kind == experiment.FaultNICFlap || f.Kind == experiment.FaultSerialFlap) && f.Period <= 0 {
				t.Fatalf("seed %d: flap period %v not positive:\n%s", seed, f.Period, Describe(p))
			}
		}
		if Signature(Generate(CampaignGray, seed)) != Signature(p) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
		res, err := Run(p, experiment.Options{})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d violated invariants:\n%s", seed, res.Report())
		}
	})
}
