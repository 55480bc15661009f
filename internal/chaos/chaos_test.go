package chaos

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

var (
	chaosRuns = flag.Int("chaos.runs", 50, "number of randomized chaos schedules TestChaos executes")
	chaosSeed = flag.Int64("chaos.seed", 0, "when non-zero, TestChaos replays exactly this one seed, verbosely")
	chaosGray = flag.Bool("chaos.gray", false, "run TestChaos (campaign or -chaos.seed replay) on gray-failure schedules instead of crisp ones")
)

// TestChaos is the main campaign: N seed-derived schedules, every one of
// which must satisfy the full invariant registry. On failure it shrinks the
// schedule and reports the seed, so the exact run replays with
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=<seed>
func TestChaos(t *testing.T) {
	if *chaosSeed != 0 {
		runOne(t, *chaosSeed, true)
		return
	}
	signatures := make(map[string]bool)
	for i := 0; i < *chaosRuns; i++ {
		seed := int64(1 + i)
		sc := runOne(t, seed, false)
		signatures[sc.Signature()] = true
	}
	// The generator must actually explore the fault space, not emit the
	// same few schedules over and over.
	if min := *chaosRuns * 9 / 10; len(signatures) < min {
		t.Errorf("only %d distinct schedules out of %d runs (want ≥ %d)", len(signatures), *chaosRuns, min)
	}
}

func runOne(t *testing.T, seed int64, verbose bool) Schedule {
	t.Helper()
	campaign := CampaignDefault
	if *chaosGray {
		campaign = CampaignGray
	}
	sc := Generate(campaign, seed)
	if verbose {
		t.Logf("schedule:\n%v", sc)
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}
	if verbose {
		t.Logf("clients: %+v", res.Clients)
		for _, s := range res.Skipped {
			t.Logf("skipped: %s", s)
		}
	}
	if res.Failed() {
		shr, serr := Shrink(sc, Options{}, res, 50)
		if serr != nil {
			t.Logf("shrink error: %v", serr)
		}
		t.Fatalf("seed %d violated invariants.\n--- original ---\n%s--- shrunk (%d runs) ---\n%s",
			seed, res.Report(), shr.Runs, shr.Result.Report())
	}
	return sc
}

// TestChaosDeterministic replays a few seeds twice and demands
// byte-identical traces and metrics: the whole harness — schedule
// generation, injection guards, shrink candidates — must be a pure
// function of the seed.
func TestChaosDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 17, 40} {
		run := func() (string, *metrics.Snapshot) {
			res, err := Run(Generate(CampaignDefault, seed), Options{})
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
	res, err := Run(Generate(CampaignDefault, 4468), Options{})
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

// baseFailoverSchedule is a plain mid-transfer primary crash: the simplest
// schedule on which the sabotage tests operate.
func baseFailoverSchedule(seed int64) Schedule {
	return Schedule{
		Seed:     seed,
		Workload: "download",
		Bytes:    2 << 20,
		Horizon:  30 * time.Second,
		Events: []Event{
			{At: 0, Kind: EvClientStart},
			{At: 400 * time.Millisecond, Kind: EvCrashServing},
		},
	}
}

// TestChaosCatchesUnsuppressedBackup proves the invariant registry detects
// a real protocol bug: with output suppression sabotaged the client still
// sees a correct byte stream (the replica transmits identical data), so
// only the backup-silence invariant can catch it — and it must, with a
// schedule that shrinks to the bare workload.
func TestChaosCatchesUnsuppressedBackup(t *testing.T) {
	opts := Options{sabotageUnsuppressedBackup: true}
	sc := baseFailoverSchedule(123)
	res, err := Run(sc, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Failed() {
		t.Fatalf("sabotaged suppression went undetected.\n%s", res.Report())
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == "backup-silence" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a backup-silence violation, got: %v", res.Violations)
	}
	shr, err := Shrink(sc, opts, res, 50)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	// The bug needs no fault at all — any accepted connection transmits
	// from the backup — so the shrinker must drop the crash.
	if got := len(shr.Schedule.Events); got > 1 {
		t.Errorf("shrunk schedule still has %d events, want 1 (client start only):\n%v", got, shr.Schedule)
	}
	if !shr.Result.Failed() {
		t.Error("shrunk schedule no longer fails")
	}
	t.Logf("shrunk in %d runs to:\n%v", shr.Runs, shr.Schedule)
}

// TestChaosShrinksBrokenDetection sabotages failure detection entirely (no
// fault is ever declared) and checks that (a) a crash now strands the
// client — caught by client-integrity — and (b) the shrinker strips the
// decoy noise events down to the minimal client+crash pair.
func TestChaosShrinksBrokenDetection(t *testing.T) {
	opts := Options{sabotageBlindDetectors: true}
	sc := Schedule{
		Seed:     7,
		Workload: "download",
		Bytes:    32 << 20,
		Horizon:  12 * time.Second,
		Events: []Event{
			{At: 0, Kind: EvClientStart},
			{At: 100 * time.Millisecond, Kind: EvDelayClient, Delay: 2 * time.Millisecond, Dur: 300 * time.Millisecond},
			{At: 150 * time.Millisecond, Kind: EvDropStandby, Dur: 80 * time.Millisecond},
			{At: 200 * time.Millisecond, Kind: EvLossClient, Rate: 0.05, Dur: 200 * time.Millisecond},
			// Past the standby-risk grace window the drop-standby decoy
			// opens, and mid-transfer (32 MiB take ≈3 s on the wire).
			{At: 1 * time.Second, Kind: EvCrashServing},
		},
	}
	res, err := Run(sc, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Failed() {
		t.Fatalf("blind detectors went undetected.\n%s", res.Report())
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == "client-integrity" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a client-integrity violation, got: %v", res.Violations)
	}
	shr, err := Shrink(sc, opts, res, 50)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if got := len(shr.Schedule.Events); got > 2 {
		t.Errorf("shrunk schedule still has %d events, want 2 (client + crash):\n%v", got, shr.Schedule)
	}
	if !shr.Result.Failed() {
		t.Error("shrunk schedule no longer fails")
	}
	hasCrash := false
	for _, e := range shr.Schedule.Events {
		if e.Kind == EvCrashServing {
			hasCrash = true
		}
	}
	if !hasCrash {
		t.Errorf("shrunk schedule lost the crash that causes the failure:\n%v", shr.Schedule)
	}
	t.Logf("shrunk in %d runs to:\n%v", shr.Runs, shr.Schedule)
}

// TestChaosGray is the gray-failure campaign: 50 seed-derived schedules
// drawn from the gray campaign — starvation, asymmetric cuts, corrupting links,
// flapping interfaces, clock skew — every one judged by the full
// invariant registry including the gray invariants (quiescence under
// noise, detection bounds on verdict faults, fingerprint evidence,
// flap containment). Replay one seed with
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=<seed> -chaos.gray
func TestChaosGray(t *testing.T) {
	verdicts, noise := 0, 0
	for seed := int64(1); seed <= 50; seed++ {
		sc := Generate(CampaignGray, seed)
		if !sc.HasGray() {
			t.Fatalf("seed %d: gray-campaign schedule has no gray fault:\n%v", seed, sc)
		}
		if sc.DriftObservable() && sc.HasGray() {
			noise++
		} else {
			verdicts++
		}
		res, err := Run(sc, Options{})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Failed() {
			shr, serr := Shrink(sc, Options{}, res, 50)
			if serr != nil {
				t.Logf("shrink error: %v", serr)
			}
			t.Fatalf("gray seed %d violated invariants.\n--- original ---\n%s--- shrunk (%d runs) ---\n%s",
				seed, res.Report(), shr.Runs, shr.Result.Report())
		}
	}
	// The generator must exercise both halves of the gray fault model:
	// schedules the detectors must act on and schedules they must ride
	// out.
	if verdicts == 0 || noise == 0 {
		t.Errorf("campaign shape degenerate: %d verdict-carrying schedules, %d noise-only", verdicts, noise)
	}
}

// TestChaosGrayDeterministic is the gray twin of TestChaosDeterministic:
// identical seeds must reproduce byte-identical traces and metrics even
// with the suspicion scorer, flap closures, and corruption RNG in play.
func TestChaosGrayDeterministic(t *testing.T) {
	for _, seed := range []int64{2, 30, 42} {
		run := func() (string, *metrics.Snapshot) {
			res, err := Run(Generate(CampaignGray, seed), Options{})
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
// hand-built schedule: a deep CPU starve of the serving host under an
// echo workload must end in a takeover within the injector's declared
// bound, driven by the suspicion scorer (no crisp detector fires — the
// host's heartbeats keep flowing).
func TestGrayStarveDetected(t *testing.T) {
	sc := Schedule{
		Seed:     99,
		Workload: "echo",
		Rounds:   1000,
		MsgSize:  512,
		Horizon:  30 * time.Second,
		Events: []Event{
			{At: 0, Kind: EvClientStart},
			{At: 1 * time.Second, Kind: EvStarveServing, Scale: 500, Dur: 8 * time.Second},
		},
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Failed() {
		t.Fatalf("starve schedule violated invariants:\n%s", res.Report())
	}
	if got := res.Metrics.CounterTotal("sttcp.takeovers"); got != 1 {
		t.Errorf("takeovers = %d, want exactly 1 (suspicion verdict on the starved primary)", got)
	}
}

// TestGrayCorruptionRiddenOut pins the flip side: checksum noise alone,
// however dense, must never cause a takeover — the gray-quiescence
// invariant enforces it, and this test double-checks the counter.
func TestGrayCorruptionRiddenOut(t *testing.T) {
	sc := Schedule{
		Seed:     98,
		Workload: "echo",
		Rounds:   1000,
		MsgSize:  512,
		Horizon:  30 * time.Second,
		Events: []Event{
			{At: 0, Kind: EvClientStart},
			{At: 800 * time.Millisecond, Kind: EvCorruptServing, Rate: 0.10, Dur: 1500 * time.Millisecond},
			{At: 1 * time.Second, Kind: EvCorruptSerial, Rate: 0.40, Dur: 3 * time.Second},
		},
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Failed() {
		t.Fatalf("corruption noise schedule violated invariants:\n%s", res.Report())
	}
	if got := res.Metrics.CounterTotal("sttcp.takeovers"); got != 0 {
		t.Errorf("takeovers = %d, want 0 (checksum noise must be ridden out)", got)
	}
	if res.Injected["corrupt-serving"] != 1 || res.Injected["corrupt-serial"] != 1 {
		t.Errorf("injected = %v, want both corruption events applied", res.Injected)
	}
}

// TestGenerateShapes sanity-checks the generator's structural guarantees
// over many seeds: a client always starts at t=0, events are sorted, at
// least one fault exists, and String/Signature round out stably.
func TestGenerateShapes(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		sc := Generate(CampaignDefault, seed)
		if len(sc.Events) < 2 {
			t.Fatalf("seed %d: schedule has no fault events:\n%v", seed, sc)
		}
		if sc.Events[0].Kind != EvClientStart || sc.Events[0].At != 0 {
			t.Fatalf("seed %d: first event is %v, want client-start@0", seed, sc.Events[0])
		}
		for i := 1; i < len(sc.Events); i++ {
			if sc.Events[i].At < sc.Events[i-1].At {
				t.Fatalf("seed %d: events out of order:\n%v", seed, sc)
			}
		}
		if sc.Workload != "download" && sc.Workload != "echo" {
			t.Fatalf("seed %d: unknown workload %q", seed, sc.Workload)
		}
		if a, b := Generate(CampaignDefault, seed).Signature(), sc.Signature(); a != b {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		if fmt.Sprint(sc) == "" {
			t.Fatalf("seed %d: empty String", seed)
		}
	}
}
