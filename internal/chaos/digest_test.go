package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

var updateDigest = flag.Bool("update", false, "rewrite the campaign outcome digests under testdata/ from the current run")

// outcomeDigest renders what one campaign run did, as opposed to how its
// trace reads: which events were injected and which refused (and why), the
// verdicts, where every client ended, and the virtual instant of every
// takeover and non-FT transition. A change to how faults are injected must
// reproduce it byte for byte; a change to what a plan injects shows up
// as a reviewable diff naming the seed.
func outcomeDigest(res *RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", res.Plan.Seed)
	kinds := make([]string, 0, len(res.Injected))
	for k := range res.Injected {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  injected %s x%d\n", k, res.Injected[k])
	}
	for _, s := range res.Skipped {
		fmt.Fprintf(&b, "  skipped %s\n", s)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "  VIOLATION %v\n", v)
	}
	for _, c := range res.Clients {
		fmt.Fprintf(&b, "  client %s done=%v %s err=%q\n", c.Name, c.Done, c.Progress, c.Err)
	}
	for _, k := range []trace.Kind{trace.KindTakeover, trace.KindNonFTMode} {
		evs := res.Trace.Filter(k)
		fmt.Fprintf(&b, "  %v x%d", k, len(evs))
		for _, e := range evs {
			fmt.Fprintf(&b, " %v", e.Time.Sub(sim.Epoch))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestCampaignDigest pins the outcome of seeds 1–60 of both campaigns
// against testdata/digest-{default,gray}.golden. Regenerate after a
// deliberate change to what plans inject with
//
//	go test ./internal/chaos -run CampaignDigest -update
//
// and name the seeds that moved in the change description.
func TestCampaignDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("120 campaign runs skipped in -short")
	}
	for _, c := range []struct {
		name     string
		campaign Campaign
	}{{"default", CampaignDefault}, {"gray", CampaignGray}} {
		var got strings.Builder
		for seed := int64(1); seed <= 60; seed++ {
			res, err := Run(Generate(c.campaign, seed), Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			got.WriteString(outcomeDigest(res))
		}
		golden := filepath.Join("testdata", "digest-"+c.name+".golden")
		if *updateDigest {
			if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
				t.Fatalf("write golden: %v", err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if got.String() != string(want) {
			t.Errorf("%s campaign outcomes drifted from %s; first differing seed block:\n%s",
				c.name, golden, firstDiff(got.String(), string(want)))
		}
	}
}

// firstDiff returns the first "seed N" block of got that differs from
// want, next to want's version of it.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "seed "), strings.Split(want, "seed ")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			other := ""
			if i < len(w) {
				other = w[i]
			}
			return "--- got ---\nseed " + g[i] + "--- want ---\nseed " + other
		}
	}
	return "golden has more seeds than the run"
}
