// Package chaos is a deterministic chaos-testing harness for the simulated
// ST-TCP testbed: from a single int64 seed it generates a randomized fault
// schedule (machine crashes, silent application crashes, NIC failures,
// serial cuts, loss/latency bursts, double failovers, and gray failures —
// slow-not-dead hosts, asymmetric partitions, byte-corrupting links,
// flapping interfaces, clock-rate skew), injects it into a fresh testbed
// run, and afterwards checks a registry of system-wide invariants against
// the trace stream and the metrics snapshot. Chaos performs no fault itself:
// every physical act is an experiment.Fault that the testbed vets, performs
// and (for a windowed kind) reverts. What is chaos's own is one table
// (kinds) saying, per EventKind, whom it strikes — a role resolved to a
// machine when it fires — when striking is survivable, which fault it is,
// and what the invariants may expect afterwards. Everything is driven by the simulator's seeded
// randomness, so any failure replays exactly from its seed, and a greedy
// shrinker minimises the failing schedule.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// EventKind identifies one fault (or workload) injection.
type EventKind int

// Event kinds. "Serving" and "Standby" are resolved live at injection time:
// the serving side is whichever node currently transmits to the client
// (primary, or the backup after a takeover), the standby side is the backup
// while both nodes are active. Resolving by role rather than by machine
// keeps double-failover schedules meaningful after a rejoin swaps the
// machines' roles.
const (
	// EvClientStart opens the workload connection (always present at t=0).
	EvClientStart EventKind = iota
	// EvSecondClient opens one more client connection mid-run.
	EvSecondClient

	// EvCrashServing / EvCrashStandby power the machine off abruptly
	// (Table 1 row 1: hardware failure — NIC, OS, and serial all die).
	EvCrashServing
	EvCrashStandby

	// EvAppCrashServing / EvAppCrashStandby crash only the application
	// process (Table 1 row 3). Cleanup selects the §4.2.2 variant in
	// which the OS closes the sockets (FIN); otherwise the crash is
	// silent (§4.2.1, no FIN).
	EvAppCrashServing
	EvAppCrashStandby

	// EvNICFailServing / EvNICFailStandby kill only the Ethernet NIC
	// (Table 1 row 2); heartbeats continue over the serial line and the
	// ping arbitration of §4.3 assigns blame.
	EvNICFailServing
	EvNICFailStandby

	// EvSerialCut unplugs the null-modem cable (Table 1 row 4).
	EvSerialCut

	// EvDrop* silence one ethernet link's inbound direction for Dur
	// (Table 1 row 5: transient fault shorter than the HB timeout).
	EvDropServing
	EvDropStandby
	EvDropClient

	// EvLoss* impose a random loss rate on one link for Dur.
	EvLossServing
	EvLossStandby
	EvLossClient

	// EvDelay* add Delay of one-way latency on one link for Dur.
	EvDelayServing
	EvDelayStandby
	EvDelayClient

	// EvRejoin reboots the dead machine and reintegrates it as the new
	// backup (the repair loop), restoring fault tolerance so a second
	// failover becomes possible.
	EvRejoin

	// Gray failures: faults that degrade rather than kill, invisible to
	// the crisp Table 1 detectors. Each has a detector answer in
	// internal/sttcp (gated by Config.Suspicion.Enabled) and is judged by
	// the gray invariants.

	// EvStarveServing CPU-starves the serving host: application
	// processing is stretched by factor Scale for Dur while the host's
	// timers — and heartbeats — stay on schedule. The slow-not-dead
	// primary; answered by the response-latency suspicion scorer.
	EvStarveServing
	// EvAsymPartition cuts only the serving host's transmit direction on
	// its LAN link for Dur: the host keeps receiving (and so stays
	// oblivious) while its heartbeats and ACKs vanish. Answered by the
	// asymmetric-partition criterion.
	EvAsymPartition
	// EvCorruptServing flips one bit per frame with probability Rate on
	// the serving host's LAN link for Dur. Every flip is caught by an
	// IP/UDP/TCP checksum and dropped, so corruption behaves as
	// detectable loss; the detectors must ride it out without a verdict.
	EvCorruptServing
	// EvCorruptSerial flips bits on the serial heartbeat line at Rate
	// for Dur; the CRC32 frame check rejects them. Evidence (CRC error
	// counters, transient link-silence spans) without a verdict.
	EvCorruptSerial
	// EvNICFlap toggles the serving host's LAN link down and up every
	// Period/2 for Dur — faster than the heartbeat detection period.
	// STONITH-before-takeover must prevent dual-transmitter oscillation.
	EvNICFlap
	// EvSerialFlap toggles the serial line down and up every Period/2
	// for Dur.
	EvSerialFlap
	// EvClockSkew scales the standby host's timer oscillator by Scale
	// (above or below 1) for Dur: heartbeats and detectors run off-rate.
	// Answered by the heartbeat-cadence drift estimator — evidence, not
	// a verdict.
	EvClockSkew
)

// Event is one scheduled injection.
type Event struct {
	// At is the injection time relative to run start.
	At time.Duration
	// Kind selects the fault.
	Kind EventKind
	// Dur is the window length for windowed events (drop/loss/delay and
	// every gray fault); the testbed restores nominal at At+Dur.
	Dur time.Duration
	// Rate is the loss probability for loss events and the corruption
	// probability for corrupt events.
	Rate float64
	// Delay is the extra one-way latency for delay events.
	Delay time.Duration
	// Cleanup selects the with-OS-cleanup (FIN) application crash.
	Cleanup bool
	// Scale is the CPU-starvation stretch factor (EvStarveServing) or
	// the timer-rate factor (EvClockSkew).
	Scale float64
	// Period is the full down+up cycle length for flap events.
	Period time.Duration
}

// Gray reports whether the event is one of the gray-failure kinds.
func (e Event) Gray() bool { return e.Kind >= EvStarveServing && e.Kind <= EvClockSkew }

// String renders the event compactly, e.g. "@480ms loss-standby rate=0.18 dur=1.2s".
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%v %v", e.At, e.Kind)
	if e.Rate != 0 {
		fmt.Fprintf(&b, " rate=%.2f", e.Rate)
	}
	if e.Delay != 0 {
		fmt.Fprintf(&b, " delay=%v", e.Delay)
	}
	if e.Scale != 0 {
		fmt.Fprintf(&b, " scale=%.3g", e.Scale)
	}
	if e.Period != 0 {
		fmt.Fprintf(&b, " period=%v", e.Period)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, " dur=%v", e.Dur)
	}
	if e.Cleanup {
		b.WriteString(" cleanup")
	}
	return b.String()
}

// Schedule is a complete chaos run description: the workload plus the fault
// events, all derived from Seed. A Schedule can also be built by hand (the
// ported failover fuzz test does) — the harness does not care where the
// events came from.
type Schedule struct {
	// Seed drives the testbed simulation AND generated this schedule.
	Seed int64
	// Workload is "download" (StreamClient against the data server) or
	// "echo" (EchoClient against the echo server).
	Workload string
	// Bytes is the download size (download workload).
	Bytes int64
	// Rounds and MsgSize parameterise the echo workload.
	Rounds  int
	MsgSize int
	// Horizon bounds the run; the harness may stop earlier once every
	// client finished and the schedule is exhausted.
	Horizon time.Duration
	// Events are sorted by At.
	Events []Event
}

// HasGray reports whether any scheduled event is a gray fault; the
// harness enables the sttcp gray-failure detector suite exactly then, so
// legacy schedules replay bit-identically.
func (sc Schedule) HasGray() bool {
	for _, e := range sc.Events {
		if e.Gray() {
			return true
		}
	}
	return false
}

// DriftObservable reports whether the heartbeat-cadence drift estimator
// on the serving node can be expected to converge in this schedule. It
// cannot when a verdict-class gray fault will STONITH the observer
// mid-run (starve, asymmetric partition), nor when a NIC flap punches
// holes in the very inter-arrival stream the estimator averages — the
// flap may itself escalate to a takeover, and the gapped cadence can
// mask a slow-clock skew.
func (sc Schedule) DriftObservable() bool {
	for _, e := range sc.Events {
		switch e.Kind {
		case EvStarveServing, EvAsymPartition, EvNICFlap:
			return false
		}
	}
	return true
}

// Signature identifies the fault structure of the schedule independent of
// the seed, so a campaign can count how many *distinct* schedules it
// explored.
func (sc Schedule) Signature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", sc.Workload)
	if sc.Workload == "download" {
		fmt.Fprintf(&b, " %dB", sc.Bytes)
	} else {
		fmt.Fprintf(&b, " %dx%dB", sc.Rounds, sc.MsgSize)
	}
	for _, e := range sc.Events {
		fmt.Fprintf(&b, "; %v", e)
	}
	return b.String()
}

// String renders the schedule for failure reports.
func (sc Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d workload=%s", sc.Seed, sc.Workload)
	if sc.Workload == "download" {
		fmt.Fprintf(&b, " bytes=%d", sc.Bytes)
	} else {
		fmt.Fprintf(&b, " rounds=%d msgsize=%d", sc.Rounds, sc.MsgSize)
	}
	fmt.Fprintf(&b, " horizon=%v\n", sc.Horizon)
	for _, e := range sc.Events {
		fmt.Fprintf(&b, "  %v\n", e)
	}
	return b.String()
}

// WithoutEvent returns a copy of the schedule with event i removed — the
// shrinker's step. EvClientStart at index 0 is kept (removing the workload
// makes every run vacuously pass).
func (sc Schedule) WithoutEvent(i int) Schedule {
	out := sc
	out.Events = make([]Event, 0, len(sc.Events)-1)
	out.Events = append(out.Events, sc.Events[:i]...)
	out.Events = append(out.Events, sc.Events[i+1:]...)
	return out
}

// KindWeight weights one kind in a generator slate. Slates expand in
// slice order, so two specs with identical ordered weights consume the
// generator's randomness identically — the property that keeps
// DefaultSpec byte-compatible with historical seeds.
type KindWeight struct {
	Kind   EventKind
	Weight int
}

// Range bounds a uniform duration draw (inclusive Lo, exclusive Hi).
type Range struct{ Lo, Hi time.Duration }

// FloatRange bounds a uniform float draw.
type FloatRange struct{ Lo, Hi float64 }

// GenSpec parameterises schedule generation: per-kind weights for the
// benign, fatal, and gray slates, and the duration/rate bounds for each
// fault family. DefaultSpec reproduces the historical generator exactly;
// GraySpec trades the fatal slate for the gray one.
type GenSpec struct {
	// Seed drives generation AND the run the schedule is injected into.
	Seed int64
	// Horizon bounds the run (default 60s).
	Horizon time.Duration

	// Benign is the background-noise slate; up to MaxBenign events are
	// drawn from it, placed uniformly in BenignAt. An empty slate (or
	// MaxBenign 0) disables benign noise.
	Benign    []KindWeight
	MaxBenign int
	BenignAt  Range

	// Parameter bounds for the benign families.
	DropDur  Range
	LossRate FloatRange
	LossDur  Range
	Delay    Range
	DelayDur Range

	// Fatal is the crisp-fault slate; an empty slate disables fatal
	// faults entirely. When benign noise was drawn, a fatal fault lands
	// with probability FatalProb (a noise-free schedule always gets
	// one); it is placed in EarlyAt (the connection-establishment
	// window) with probability EarlyProb, else in FatalAt.
	Fatal       []KindWeight
	FatalProb   float64
	EarlyProb   float64
	EarlyAt     Range
	FatalAt     Range
	CleanupProb float64

	// The double-failover chain: a serving-side fatal fault rejoins with
	// probability ChainProb, then starts a second client with
	// SecondClientProb, then kills again with SecondFatalProb.
	ChainProb        float64
	SecondClientProb float64
	SecondFatalProb  float64

	// Gray is the gray-failure slate; an empty slate disables gray
	// faults. A drawn verdict-class kind (starve, asym partition) makes
	// the whole schedule verdict-class: exactly one detection target,
	// with the workload forced long enough to span it. Any other first
	// draw makes a noise-class schedule of up to MaxGray distinct kinds,
	// which the gray-quiescence invariant requires to stay verdict-free.
	Gray    []KindWeight
	MaxGray int
	GrayAt  Range

	// Parameter bounds for the gray families.
	StarveScale      FloatRange
	StarveDur        Range
	AsymDur          Range
	CorruptRate      FloatRange
	CorruptDur       Range
	SerialCorrupt    FloatRange
	SerialCorruptDur Range
	FlapPeriod       Range
	FlapDur          Range
	SkewScale        FloatRange
	SkewDur          Range
	// SkewRideProb is the chance a verdict-class schedule also skews the
	// standby's clock: detection must still meet its deadline with a
	// mildly off-rate observer.
	SkewRideProb float64
}

// DefaultSpec is the historical generator: crisp Table 1 faults plus
// benign noise, no gray events. For any seed, Generate(DefaultSpec(seed))
// produces exactly the schedule the pre-GenSpec Generate(seed) did.
func DefaultSpec(seed int64) GenSpec {
	return GenSpec{
		Seed:    seed,
		Horizon: 60 * time.Second,
		Benign: []KindWeight{
			{EvDropServing, 1}, {EvDropStandby, 1}, {EvDropClient, 1},
			{EvLossServing, 1}, {EvLossStandby, 1}, {EvLossClient, 1},
			{EvDelayServing, 1}, {EvDelayStandby, 1}, {EvDelayClient, 1},
			{EvSerialCut, 1},
		},
		MaxBenign: 3,
		BenignAt:  Range{0, 3 * time.Second},
		// Drops stay shorter than the 600 ms HB timeout: they must never
		// cause a spurious failover on a server link.
		DropDur:  Range{50 * time.Millisecond, 400 * time.Millisecond},
		LossRate: FloatRange{0.05, 0.25},
		LossDur:  Range{200 * time.Millisecond, 2 * time.Second},
		Delay:    Range{time.Millisecond, 20 * time.Millisecond},
		DelayDur: Range{100 * time.Millisecond, 2 * time.Second},
		Fatal: []KindWeight{
			{EvCrashServing, 3}, {EvCrashStandby, 2},
			{EvAppCrashServing, 2}, {EvAppCrashStandby, 1},
			{EvNICFailServing, 1}, {EvNICFailStandby, 1},
		},
		FatalProb:        0.75,
		EarlyProb:        0.30,
		EarlyAt:          Range{0, 300 * time.Millisecond},
		FatalAt:          Range{0, 1200 * time.Millisecond},
		CleanupProb:      0.33,
		ChainProb:        0.5,
		SecondClientProb: 0.6,
		SecondFatalProb:  0.6,
	}
}

// GraySpec generates gray-failure schedules: the fatal slate is dropped,
// background noise is restricted to the client link (server-link noise
// would blur the quiescence judgement of the detectors under test), and
// one of the five gray fault classes is drawn.
func GraySpec(seed int64) GenSpec {
	sp := DefaultSpec(seed)
	sp.Benign = []KindWeight{
		{EvDropClient, 1}, {EvLossClient, 1}, {EvDelayClient, 1},
	}
	sp.MaxBenign = 2
	sp.Fatal = nil
	sp.Gray = []KindWeight{
		{EvStarveServing, 3}, {EvAsymPartition, 2},
		{EvCorruptServing, 2}, {EvCorruptSerial, 2},
		{EvNICFlap, 2}, {EvSerialFlap, 1}, {EvClockSkew, 2},
	}
	sp.MaxGray = 3
	sp.GrayAt = Range{800 * time.Millisecond, 2 * time.Second}
	// Starvation stretch: staleness observed by the scorer is roughly
	// (Scale-1)ms per processing quantum plus heartbeat staleness, so
	// the floor sits comfortably above the 400 ms response SLO.
	sp.StarveScale = FloatRange{450, 800}
	sp.StarveDur = Range{6 * time.Second, 10 * time.Second}
	// Long enough for grace (1s) + hold (1s) + ping turnaround, short
	// enough that the link is restored within the horizon.
	sp.AsymDur = Range{5 * time.Second, 8 * time.Second}
	// LAN corruption bounded so the resulting retransmission stalls keep
	// the suspicion bucket below threshold.
	sp.CorruptRate = FloatRange{0.05, 0.10}
	sp.CorruptDur = Range{800 * time.Millisecond, 1500 * time.Millisecond}
	// Serial heartbeats flow at only 5/s, so the rate and window are
	// sized for the CRC-error fingerprint to be near-certain (≥ 25
	// frames cross both ports in the shortest window; at the floor rate
	// the no-reject probability is under 0.02%).
	sp.SerialCorrupt = FloatRange{0.30, 0.45}
	sp.SerialCorruptDur = Range{2500 * time.Millisecond, 4 * time.Second}
	// Flap cycles well under the 600 ms HB timeout.
	sp.FlapPeriod = Range{100 * time.Millisecond, 250 * time.Millisecond}
	sp.FlapDur = Range{1500 * time.Millisecond, 3 * time.Second}
	// Skew magnitude past the 8% drift-note threshold, long enough for
	// the EWMA to converge.
	sp.SkewScale = FloatRange{1.10, 1.15}
	sp.SkewDur = Range{6 * time.Second, 9 * time.Second}
	sp.SkewRideProb = 0.35
	return sp
}

func dur(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

func rdur(rng *rand.Rand, r Range) time.Duration { return dur(rng, r.Lo, r.Hi) }

func rfloat(rng *rand.Rand, r FloatRange) float64 {
	return r.Lo + (r.Hi-r.Lo)*rng.Float64()
}

// expandKinds unrolls a weighted slate into a draw slice, in slice order.
func expandKinds(ws []KindWeight) []EventKind {
	var out []EventKind
	for _, w := range ws {
		for i := 0; i < w.Weight; i++ {
			out = append(out, w.Kind)
		}
	}
	return out
}

// hasKind reports whether the slate mentions k with positive weight.
func hasKind(ws []KindWeight, k EventKind) bool {
	for _, w := range ws {
		if w.Kind == k && w.Weight > 0 {
			return true
		}
	}
	return false
}

// Generate derives a randomized schedule from the spec. The generator
// biases toward interesting structure: every schedule starts a client at
// t=0 and injects at least one fault; fatal faults land early (EarlyProb
// inside the connection-establishment window) so handshake races are
// exercised; a fatal fault on the serving side may chain into a rejoin, a
// second client, and a second fatal fault — the double-failover path.
func Generate(spec GenSpec) Schedule {
	return GenerateWith(sim.NewRand(spec.Seed), spec)
}

// GenerateWith is Generate drawing from an injected source — the audit
// point for schedule randomness. The campaign driver passes sim.NewRand
// (spec.Seed), so the schedule and the testbed run it is injected into
// derive from the same single seed; tests may pass any deterministic
// source.
func GenerateWith(rng *rand.Rand, spec GenSpec) Schedule {
	sc := Schedule{Seed: spec.Seed, Horizon: spec.Horizon}
	if sc.Horizon == 0 {
		sc.Horizon = 60 * time.Second
	}

	if rng.Intn(2) == 0 {
		sc.Workload = "download"
		sc.Bytes = int64(1+rng.Intn(4)) << 20
	} else {
		sc.Workload = "echo"
		sc.Rounds = 150 + rng.Intn(250)
		sc.MsgSize = 256 + rng.Intn(1280)
	}
	sc.Events = append(sc.Events, Event{At: 0, Kind: EvClientStart})

	// Benign background noise.
	benign := expandKinds(spec.Benign)
	nBenign := 0
	if len(benign) > 0 && spec.MaxBenign > 0 {
		nBenign = rng.Intn(spec.MaxBenign + 1)
	}
	for i := 0; i < nBenign; i++ {
		ev := Event{At: rdur(rng, spec.BenignAt), Kind: benign[rng.Intn(len(benign))]}
		switch ev.Kind {
		case EvDropServing, EvDropStandby, EvDropClient:
			ev.Dur = rdur(rng, spec.DropDur)
		case EvLossServing, EvLossStandby, EvLossClient:
			ev.Rate = rfloat(rng, spec.LossRate)
			ev.Dur = rdur(rng, spec.LossDur)
		case EvDelayServing, EvDelayStandby, EvDelayClient:
			ev.Delay = rdur(rng, spec.Delay)
			ev.Dur = rdur(rng, spec.DelayDur)
		}
		sc.Events = append(sc.Events, ev)
	}

	// The fatal fault, biased toward the handshake window.
	fatal := expandKinds(spec.Fatal)
	haveFatal := len(fatal) > 0 && (nBenign == 0 || rng.Float64() < spec.FatalProb)
	if haveFatal {
		ev := Event{Kind: fatal[rng.Intn(len(fatal))]}
		if rng.Float64() < spec.EarlyProb {
			ev.At = rdur(rng, spec.EarlyAt)
		} else {
			ev.At = rdur(rng, spec.FatalAt)
		}
		if ev.Kind == EvAppCrashServing || ev.Kind == EvAppCrashStandby {
			ev.Cleanup = rng.Float64() < spec.CleanupProb
		}
		sc.Events = append(sc.Events, ev)

		// A serving-side fatal fault can chain into the repair loop and
		// a second failover generation.
		servingFatal := ev.Kind == EvCrashServing ||
			(ev.Kind == EvAppCrashServing && !ev.Cleanup) ||
			ev.Kind == EvNICFailServing
		if servingFatal && rng.Float64() < spec.ChainProb {
			rejoinAt := ev.At + 4*time.Second + dur(rng, 0, 2*time.Second)
			sc.Events = append(sc.Events, Event{At: rejoinAt, Kind: EvRejoin})
			if rng.Float64() < spec.SecondClientProb {
				clientAt := rejoinAt + dur(rng, 0, time.Second)
				sc.Events = append(sc.Events, Event{At: clientAt, Kind: EvSecondClient})
				if rng.Float64() < spec.SecondFatalProb {
					second := EvCrashServing
					if rng.Intn(2) == 0 {
						second = EvCrashStandby
					}
					sc.Events = append(sc.Events, Event{
						At:   clientAt + dur(rng, 200*time.Millisecond, 1500*time.Millisecond),
						Kind: second,
					})
				}
			}
		}
	}

	if len(spec.Gray) > 0 {
		generateGray(rng, spec, &sc)
	}

	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
	return sc
}

// generateGray appends the gray block. The first draw decides the
// schedule's class: a verdict kind (starve, asym partition) yields
// exactly one detection target; anything else yields a noise-class mix
// that the detectors must ride out without a verdict.
func generateGray(rng *rand.Rand, spec GenSpec, sc *Schedule) {
	// Every gray schedule runs a long echo workload: the suspicion
	// scorer needs response traffic in flight from fault to verdict, and
	// noise-class windows must overlap dense two-way traffic or their
	// fingerprint (checksum rejects on a near-idle link) is left to
	// chance. ~4 ms/round keeps the stream flowing past the last window.
	sc.Workload = "echo"
	sc.Bytes = 0
	sc.Rounds = 900 + rng.Intn(300)
	sc.MsgSize = 256 + rng.Intn(768)
	slate := expandKinds(spec.Gray)
	first := slate[rng.Intn(len(slate))]
	if first == EvStarveServing || first == EvAsymPartition {
		sc.Events = append(sc.Events, grayEvent(rng, spec, first))
		if spec.SkewRideProb > 0 && hasKind(spec.Gray, EvClockSkew) &&
			rng.Float64() < spec.SkewRideProb {
			sc.Events = append(sc.Events, grayEvent(rng, spec, EvClockSkew))
		}
		return
	}
	n := 1
	if spec.MaxGray > 1 {
		n = 1 + rng.Intn(spec.MaxGray)
	}
	seen := make(map[EventKind]bool)
	add := func(k EventKind) {
		if seen[k] || k == EvStarveServing || k == EvAsymPartition {
			return // dedup; verdict kinds never join a noise schedule
		}
		seen[k] = true
		sc.Events = append(sc.Events, grayEvent(rng, spec, k))
	}
	add(first)
	for i := 1; i < n; i++ {
		add(slate[rng.Intn(len(slate))])
	}
}

// grayEvent draws one gray event's placement and parameters.
func grayEvent(rng *rand.Rand, spec GenSpec, k EventKind) Event {
	ev := Event{At: rdur(rng, spec.GrayAt), Kind: k}
	switch k {
	case EvStarveServing:
		ev.Scale = rfloat(rng, spec.StarveScale)
		ev.Dur = rdur(rng, spec.StarveDur)
	case EvAsymPartition:
		ev.Dur = rdur(rng, spec.AsymDur)
	case EvCorruptServing:
		ev.Rate = rfloat(rng, spec.CorruptRate)
		ev.Dur = rdur(rng, spec.CorruptDur)
	case EvCorruptSerial:
		ev.Rate = rfloat(rng, spec.SerialCorrupt)
		ev.Dur = rdur(rng, spec.SerialCorruptDur)
	case EvNICFlap, EvSerialFlap:
		ev.Period = rdur(rng, spec.FlapPeriod)
		ev.Dur = rdur(rng, spec.FlapDur)
	case EvClockSkew:
		ev.Scale = rfloat(rng, spec.SkewScale)
		if rng.Intn(2) == 0 {
			ev.Scale = 1 / ev.Scale // fast clock instead of slow
		}
		ev.Dur = rdur(rng, spec.SkewDur)
	}
	return ev
}
