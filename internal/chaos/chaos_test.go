package chaos

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
)

var (
	chaosRuns = flag.Int("chaos.runs", 50, "number of randomized chaos plans TestChaos executes")
	chaosSeed = flag.Int64("chaos.seed", 0, "when non-zero, TestChaos replays exactly this one seed, verbosely")
	chaosGray = flag.Bool("chaos.gray", false, "run TestChaos (campaign or -chaos.seed replay) on gray-failure plans instead of crisp ones")
)

// TestChaos is the main campaign: N seed-derived plans, every one of
// which must satisfy the full invariant registry. On failure it shrinks the
// plan and reports the seed, so the exact run replays with
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=<seed>
func TestChaos(t *testing.T) {
	campaign := CampaignDefault
	if *chaosGray {
		campaign = CampaignGray
	}
	if *chaosSeed != 0 {
		d := campaign.Seeds(*chaosSeed, 1, experiment.Options{})
		d.Read = func(p experiment.Plan, res *RunResult) {
			t.Logf("plan:\n%s", Describe(p))
			if res != nil {
				t.Logf("clients: %+v", res.Clients)
				for _, s := range res.Skipped {
					t.Logf("skipped: %s", s)
				}
			}
		}
		drive(t, d)
		return
	}
	signatures := make(map[string]bool)
	d := campaign.Seeds(1, *chaosRuns, experiment.Options{})
	d.Read = func(p experiment.Plan, _ *RunResult) { signatures[Signature(p)] = true }
	drive(t, d)
	// The generator must actually explore the fault space, not emit the
	// same few plans over and over.
	if min := *chaosRuns * 9 / 10; len(signatures) < min {
		t.Errorf("only %d distinct plans out of %d runs (want ≥ %d)", len(signatures), *chaosRuns, min)
	}
}

// drive runs a campaign of seeds and fails the test with the first failing
// seed's report and that of its minimal reproduction.
func drive(t *testing.T, d Driver[experiment.Plan]) {
	t.Helper()
	d.ShrinkBudget = 50
	_, fail, err := d.Drive()
	if err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatalf("seed %d violated invariants.\n--- original ---\n%s--- shrunk (%d runs) ---\n%s",
			fail.Job.Seed, fail.Found.Report(), fail.ShrinkRuns, fail.Result.Report())
	}
}

// TestChaosDeterministic replays a few seeds twice and demands
// byte-identical traces and metrics: the whole harness — plan
// generation, injection guards, shrink candidates — must be a pure
// function of the seed.
func TestChaosDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 17, 40} {
		run := func() (string, *metrics.Snapshot) {
			res, err := Run(Generate(CampaignDefault, seed), experiment.Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res.Trace.Dump(), res.Metrics
		}
		tr1, m1 := run()
		tr2, m2 := run()
		if tr1 != tr2 {
			t.Errorf("seed %d: traces differ between identical runs", seed)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Errorf("seed %d: metrics snapshots differ between identical runs", seed)
		}
	}
}

// TestSeed4468AppCrashWaitsOutTheCommitWindow pins the seed that turned
// the wall-budgeted CI campaign red: its appcrash-serving lands 10.5 ms
// into a drop-standby window. Injected, the primary convicts the deaf
// backup, powers it off and goes non-FT with its own application already
// dead, and the client stops at 1,161,015 bytes — a double failure §4.3
// calls unrecoverable, so the guard must refuse it like every other fault
// that silences the serving side.
func TestSeed4468AppCrashWaitsOutTheCommitWindow(t *testing.T) {
	res, err := Run(Generate(CampaignDefault, 4468), experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("seed 4468 violated invariants:\n%s", res.Report())
	}
	skipped := false
	for _, s := range res.Skipped {
		skipped = skipped || strings.Contains(s, "appcrash-serving") && strings.Contains(s, "output-commit window")
	}
	if !skipped || res.Injected["appcrash-serving"] != 0 {
		t.Errorf("appcrash-serving was not skipped for the output-commit reason: injected %v, skipped %q", res.Injected, res.Skipped)
	}
	if c := res.Clients[0]; !c.Done || c.Progress != "3145728/3145728 bytes" {
		t.Errorf("client ended at %+v, want all 3145728 bytes", c)
	}
}

// TestChaosGray is the gray-failure campaign: 50 seed-derived plans
// drawn from the gray campaign — starvation, asymmetric cuts, corrupting links,
// flapping interfaces, clock skew — every one judged by the full
// invariant registry including the gray invariants (quiescence under
// noise, detection bounds on verdict faults, fingerprint evidence,
// flap containment). Replay one seed with
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=<seed> -chaos.gray
func TestChaosGray(t *testing.T) {
	verdicts, noise := 0, 0
	d := CampaignGray.Seeds(1, 50, experiment.Options{})
	d.Read = func(p experiment.Plan, _ *RunResult) {
		switch grayClass(p) {
		case "":
			t.Fatalf("seed %d: gray-campaign plan has no gray fault:\n%s", p.Seed, Describe(p))
		case "verdict":
			verdicts++
		default:
			noise++
		}
	}
	drive(t, d)
	// The generator must exercise both halves of the gray fault model:
	// plans the detectors must act on and plans they must ride out.
	if verdicts == 0 || noise == 0 {
		t.Errorf("campaign shape degenerate: %d verdict-carrying plans, %d noise-only", verdicts, noise)
	}
}

// grayClass sorts a gray-campaign plan: "verdict" when it carries a fault
// the detectors must act on (starve, asymmetric partition) or that may
// trip one (a NIC flap), "noise" when it carries gray faults they must
// ride out, "" when it carries no gray fault at all.
func grayClass(p experiment.Plan) string {
	class := ""
	for _, f := range p.Faults {
		switch f.Kind {
		case experiment.FaultStarve, experiment.FaultTxCut, experiment.FaultNICFlap:
			return "verdict"
		case experiment.FaultDrop, experiment.FaultLoss, experiment.FaultDelay:
		default:
			class = "noise"
		}
	}
	return class
}

// TestChaosGrayDeterministic is the gray twin of TestChaosDeterministic:
// identical seeds must reproduce byte-identical traces and metrics even
// with the suspicion scorer, flap closures, and corruption RNG in play.
func TestChaosGrayDeterministic(t *testing.T) {
	for _, seed := range []int64{2, 30, 42} {
		run := func() (string, *metrics.Snapshot) {
			res, err := Run(Generate(CampaignGray, seed), experiment.Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res.Trace.Dump(), res.Metrics
		}
		tr1, m1 := run()
		tr2, m2 := run()
		if tr1 != tr2 {
			t.Errorf("gray seed %d: traces differ between identical runs", seed)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Errorf("gray seed %d: metrics snapshots differ between identical runs", seed)
		}
	}
}

// TestGrayStarveDetected pins the tentpole behavior end to end on a
// hand-built plan: a deep CPU starve of the serving host under an
// echo workload must end in a takeover within gray-detection-bound's
// deadline, driven by the suspicion scorer (no crisp detector fires — the
// host's heartbeats keep flowing).
func TestGrayStarveDetected(t *testing.T) {
	p := echoPlan(99, 1000)
	p.Faults = []experiment.Fault{{At: 1 * time.Second, Kind: experiment.FaultStarve, Host: "serving", Scale: 500, Dur: 8 * time.Second}}
	res, err := Run(p, experiment.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Failed() {
		t.Fatalf("starve plan violated invariants:\n%s", res.Report())
	}
	if got := res.Metrics.CounterTotal("sttcp.takeovers"); got != 1 {
		t.Errorf("takeovers = %d, want exactly 1 (suspicion verdict on the starved primary)", got)
	}
}

// echoPlan is a hand-built chaos plan: one echo client of rounds 512-byte
// rounds from t=0, a 30 s horizon, no fault yet.
func echoPlan(seed int64, rounds int) experiment.Plan {
	p := experiment.Plan{
		Clients: []experiment.Workload{{Echo: true, Rounds: rounds, MsgSize: 512, Gap: 3 * time.Millisecond}},
		Horizon: 30 * time.Second,
	}
	p.Seed = seed
	return p
}

// TestGrayCorruptionRiddenOut pins the flip side: checksum noise alone,
// however dense, must never cause a takeover — the gray-quiescence
// invariant enforces it, and this test double-checks the counter.
func TestGrayCorruptionRiddenOut(t *testing.T) {
	p := echoPlan(98, 1000)
	p.Faults = []experiment.Fault{
		{At: 800 * time.Millisecond, Kind: experiment.FaultCorrupt, Host: "serving", Rate: 0.10, Dur: 1500 * time.Millisecond},
		{At: 1 * time.Second, Kind: experiment.FaultSerialCorrupt, Rate: 0.40, Dur: 3 * time.Second},
	}
	res, err := Run(p, experiment.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Failed() {
		t.Fatalf("corruption noise plan violated invariants:\n%s", res.Report())
	}
	if got := res.Metrics.CounterTotal("sttcp.takeovers"); got != 0 {
		t.Errorf("takeovers = %d, want 0 (checksum noise must be ridden out)", got)
	}
	if res.Injected["corrupt-serving"] != 1 || res.Injected["corrupt-serial"] != 1 {
		t.Errorf("injected = %v, want both corruption faults applied", res.Injected)
	}
}

// TestGenerateShapes sanity-checks the generator's structural guarantees
// over many seeds: a client always starts at t=0, faults are sorted, at
// least one exists, and Describe/Signature round out stably.
func TestGenerateShapes(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		p := Generate(CampaignDefault, seed)
		if len(p.Faults) == 0 {
			t.Fatalf("seed %d: plan has no fault:\n%s", seed, Describe(p))
		}
		if p.Clients[0].At != 0 {
			t.Fatalf("seed %d: first client starts at %v, want 0", seed, p.Clients[0].At)
		}
		for i := 1; i < len(p.Faults); i++ {
			if p.Faults[i].At < p.Faults[i-1].At {
				t.Fatalf("seed %d: faults out of order:\n%s", seed, Describe(p))
			}
		}
		for _, f := range p.Faults {
			if rowOf(f) == nil {
				t.Fatalf("seed %d: fault %s %q has no row", seed, f.Kind, f.Host)
			}
		}
		if a, b := Signature(Generate(CampaignDefault, seed)), Signature(p); a != b {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		if Describe(p) == "" {
			t.Fatalf("seed %d: empty description", seed)
		}
	}
}

// TestFaultNamed pins the command-line spelling of a fault: every row's
// name resolves to a template of that row, and an application crash
// spelled by name is the silent one.
func TestFaultNamed(t *testing.T) {
	for _, r := range rows {
		f, err := FaultNamed(r.name)
		if err != nil || rowOf(f) == nil || rowOf(f).name != r.name {
			t.Errorf("FaultNamed(%q) = %+v, %v", r.name, f, err)
		}
	}
	if f, _ := FaultNamed("appcrash-serving"); f.Kind != experiment.FaultAppCrashSilent || f.Host != "serving" {
		t.Errorf("appcrash-serving is %+v, want the silent crash of the serving node", f)
	}
	if _, err := FaultNamed("gremlins"); err == nil {
		t.Error("an unknown name resolved")
	}
}
