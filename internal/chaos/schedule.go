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
	// internal/sttcp, which every node runs, and is judged by the gray
	// invariants.

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

// HasGray reports whether any scheduled event is a gray fault: a failing
// seed of such a schedule came from the gray campaign, and its replay line
// says -chaos.gray.
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

// Campaign names one of the two schedule families Generate draws.
type Campaign int

const (
	// CampaignDefault is crisp Table 1 faults (machine, application and NIC
	// failures, with the double-failover chain) over benign noise on every
	// link; no gray events.
	CampaignDefault Campaign = iota
	// CampaignGray drops the fatal slate, restricts background noise to the
	// client link (server-link noise would blur the quiescence judgement of
	// the detectors under test), and draws from the gray fault classes.
	CampaignGray
)

// The generator's slates. A kind's weight is how many times it appears,
// and the order is part of the draw contract: a slate is indexed by
// rng.Intn, so reordering one moves every pinned seed.
var (
	benignSlate = []EventKind{
		EvDropServing, EvDropStandby, EvDropClient,
		EvLossServing, EvLossStandby, EvLossClient,
		EvDelayServing, EvDelayStandby, EvDelayClient,
		EvSerialCut,
	}
	benignClientSlate = []EventKind{EvDropClient, EvLossClient, EvDelayClient}
	fatalSlate        = []EventKind{
		EvCrashServing, EvCrashServing, EvCrashServing,
		EvCrashStandby, EvCrashStandby,
		EvAppCrashServing, EvAppCrashServing,
		EvAppCrashStandby,
		EvNICFailServing,
		EvNICFailStandby,
	}
	graySlate = []EventKind{
		EvStarveServing, EvStarveServing, EvStarveServing,
		EvAsymPartition, EvAsymPartition,
		EvCorruptServing, EvCorruptServing,
		EvCorruptSerial, EvCorruptSerial,
		EvNICFlap, EvNICFlap,
		EvSerialFlap,
		EvClockSkew, EvClockSkew,
	}
)

// dur draws a duration uniformly from [lo, hi).
func dur(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

// uniform draws a float uniformly from [lo, hi).
func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*rng.Float64()
}

// Generate derives the campaign's randomized schedule for seed; the same
// seed drives the run the schedule is injected into (sim.NewRand is the
// audited seeding point). The generator biases toward interesting
// structure: every schedule starts a client at t=0 and injects at least one
// fault; fatal faults land early (30 % inside the connection-establishment
// window) so handshake races are exercised; a fatal fault on the serving
// side may chain into a rejoin, a second client, and a second fatal fault —
// the double-failover path. The order of the draws below is the contract
// the pinned seeds and campaign digests hold: a bound may move, a draw may
// not.
func Generate(campaign Campaign, seed int64) Schedule {
	rng := sim.NewRand(seed)
	sc := Schedule{Seed: seed, Horizon: 60 * time.Second}

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
	benign, maxBenign := benignSlate, 3
	if campaign == CampaignGray {
		benign, maxBenign = benignClientSlate, 2
	}
	nBenign := rng.Intn(maxBenign + 1)
	for i := 0; i < nBenign; i++ {
		ev := Event{At: dur(rng, 0, 3*time.Second), Kind: benign[rng.Intn(len(benign))]}
		switch ev.Kind {
		case EvDropServing, EvDropStandby, EvDropClient:
			// Drops stay shorter than the 600 ms HB timeout: they must
			// never cause a spurious failover on a server link.
			ev.Dur = dur(rng, 50*time.Millisecond, 400*time.Millisecond)
		case EvLossServing, EvLossStandby, EvLossClient:
			ev.Rate = uniform(rng, 0.05, 0.25)
			ev.Dur = dur(rng, 200*time.Millisecond, 2*time.Second)
		case EvDelayServing, EvDelayStandby, EvDelayClient:
			ev.Delay = dur(rng, time.Millisecond, 20*time.Millisecond)
			ev.Dur = dur(rng, 100*time.Millisecond, 2*time.Second)
		}
		sc.Events = append(sc.Events, ev)
	}

	if campaign == CampaignGray {
		generateGray(rng, &sc)
	} else if nBenign == 0 || rng.Float64() < 0.75 {
		// A noise-free schedule always gets its fatal fault.
		generateFatal(rng, &sc)
	}

	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
	return sc
}

// generateFatal appends the crisp fault, biased toward the handshake
// window, and with it the double-failover chain.
func generateFatal(rng *rand.Rand, sc *Schedule) {
	ev := Event{Kind: fatalSlate[rng.Intn(len(fatalSlate))]}
	if rng.Float64() < 0.30 {
		ev.At = dur(rng, 0, 300*time.Millisecond)
	} else {
		ev.At = dur(rng, 0, 1200*time.Millisecond)
	}
	if ev.Kind == EvAppCrashServing || ev.Kind == EvAppCrashStandby {
		ev.Cleanup = rng.Float64() < 0.33
	}
	sc.Events = append(sc.Events, ev)

	// A serving-side fatal fault can chain into the repair loop and a
	// second failover generation: a rejoin, then perhaps a second client,
	// then perhaps a second kill.
	servingFatal := ev.Kind == EvCrashServing ||
		(ev.Kind == EvAppCrashServing && !ev.Cleanup) ||
		ev.Kind == EvNICFailServing
	if !servingFatal || rng.Float64() >= 0.5 {
		return
	}
	rejoinAt := ev.At + 4*time.Second + dur(rng, 0, 2*time.Second)
	sc.Events = append(sc.Events, Event{At: rejoinAt, Kind: EvRejoin})
	if rng.Float64() >= 0.6 {
		return
	}
	clientAt := rejoinAt + dur(rng, 0, time.Second)
	sc.Events = append(sc.Events, Event{At: clientAt, Kind: EvSecondClient})
	if rng.Float64() >= 0.6 {
		return
	}
	second := EvCrashServing
	if rng.Intn(2) == 0 {
		second = EvCrashStandby
	}
	sc.Events = append(sc.Events, Event{
		At:   clientAt + dur(rng, 200*time.Millisecond, 1500*time.Millisecond),
		Kind: second,
	})
}

// generateGray appends the gray block. The first draw decides the
// schedule's class: a verdict kind (starve, asym partition) makes the whole
// schedule verdict-class — exactly one detection target — while anything
// else yields a noise-class mix of up to three distinct kinds that the
// detectors must ride out without a verdict (gray-quiescence).
func generateGray(rng *rand.Rand, sc *Schedule) {
	// Every gray schedule runs a long echo workload: the suspicion
	// scorer needs response traffic in flight from fault to verdict, and
	// noise-class windows must overlap dense two-way traffic or their
	// fingerprint (checksum rejects on a near-idle link) is left to
	// chance. ~4 ms/round keeps the stream flowing past the last window.
	sc.Workload = "echo"
	sc.Bytes = 0
	sc.Rounds = 900 + rng.Intn(300)
	sc.MsgSize = 256 + rng.Intn(768)
	first := graySlate[rng.Intn(len(graySlate))]
	if first == EvStarveServing || first == EvAsymPartition {
		sc.Events = append(sc.Events, grayEvent(rng, first))
		// A verdict-class schedule may also skew the standby's clock:
		// detection must still meet its deadline with a mildly off-rate
		// observer.
		if rng.Float64() < 0.35 {
			sc.Events = append(sc.Events, grayEvent(rng, EvClockSkew))
		}
		return
	}
	n := 1 + rng.Intn(3)
	seen := make(map[EventKind]bool)
	add := func(k EventKind) {
		if seen[k] || k == EvStarveServing || k == EvAsymPartition {
			return // dedup; verdict kinds never join a noise schedule
		}
		seen[k] = true
		sc.Events = append(sc.Events, grayEvent(rng, k))
	}
	add(first)
	for i := 1; i < n; i++ {
		add(graySlate[rng.Intn(len(graySlate))])
	}
}

// grayEvent draws one gray event's placement and parameters.
func grayEvent(rng *rand.Rand, k EventKind) Event {
	ev := Event{At: dur(rng, 800*time.Millisecond, 2*time.Second), Kind: k}
	switch k {
	case EvStarveServing:
		// Starvation stretch: staleness observed by the scorer is roughly
		// (Scale-1)ms per processing quantum plus heartbeat staleness, so
		// the floor sits comfortably above the 400 ms response SLO.
		ev.Scale = uniform(rng, 450, 800)
		ev.Dur = dur(rng, 6*time.Second, 10*time.Second)
	case EvAsymPartition:
		// Long enough for grace (1s) + hold (1s) + ping turnaround, short
		// enough that the link is restored within the horizon.
		ev.Dur = dur(rng, 5*time.Second, 8*time.Second)
	case EvCorruptServing:
		// LAN corruption bounded so the resulting retransmission stalls
		// keep the suspicion bucket below threshold.
		ev.Rate = uniform(rng, 0.05, 0.10)
		ev.Dur = dur(rng, 800*time.Millisecond, 1500*time.Millisecond)
	case EvCorruptSerial:
		// Serial heartbeats flow at only 5/s, so the rate and window are
		// sized for the CRC-error fingerprint to be near-certain (≥ 25
		// frames cross both ports in the shortest window; at the floor
		// rate the no-reject probability is under 0.02%).
		ev.Rate = uniform(rng, 0.30, 0.45)
		ev.Dur = dur(rng, 2500*time.Millisecond, 4*time.Second)
	case EvNICFlap, EvSerialFlap:
		// Flap cycles well under the 600 ms HB timeout.
		ev.Period = dur(rng, 100*time.Millisecond, 250*time.Millisecond)
		ev.Dur = dur(rng, 1500*time.Millisecond, 3*time.Second)
	case EvClockSkew:
		// Skew magnitude past the 8% drift-note threshold, long enough
		// for the EWMA to converge.
		ev.Scale = uniform(rng, 1.10, 1.15)
		if rng.Intn(2) == 0 {
			ev.Scale = 1 / ev.Scale // fast clock instead of slow
		}
		ev.Dur = dur(rng, 6*time.Second, 9*time.Second)
	}
	return ev
}
