// Package chaos is a deterministic chaos-testing harness for the simulated
// ST-TCP testbed: from a single int64 seed it draws a randomized
// experiment.Plan (machine crashes, silent application crashes, NIC
// failures, serial cuts, loss/latency bursts, double failovers, and gray
// failures — slow-not-dead hosts, asymmetric partitions, byte-corrupting
// links, flapping interfaces, clock-rate skew) and runs it on a fresh
// testbed, which the invariant registry judges like every plan. Chaos
// performs no fault itself and keeps no vocabulary of its own: a fault is
// an experiment.Fault whose host may be a role, serving or standby, which
// the testbed resolves to a machine as it strikes. What is chaos's own is
// policy, one table (rows) holding per fault kind and host or role the name
// reports give it and the guard that vetoes it at strike time while
// striking would not be survivable. Everything is driven by the
// simulator's seeded randomness, so any failure replays exactly from its
// seed, and experiment.Shrink minimises a failing plan.
package chaos

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// Campaign names one of the two plan families Generate draws.
type Campaign int

const (
	// CampaignDefault is crisp Table 1 faults (machine, application and NIC
	// failures, with the double-failover chain) over benign noise on every
	// link; no gray faults.
	CampaignDefault Campaign = iota
	// CampaignGray drops the fatal slate, restricts background noise to the
	// client link (server-link noise would blur the quiescence judgement of
	// the detectors under test), and draws from the gray fault classes.
	CampaignGray
)

// on is the fault template of kind k striking host, a machine or a role.
func on(k experiment.FaultKind, host string) experiment.Fault {
	return experiment.Fault{Kind: k, Host: host}
}

// The generator's slates of fault templates. A template's weight is how
// many times it appears, and the order is part of the draw contract: a
// slate is indexed by rng.Intn, so reordering one moves every pinned seed.
var (
	benignSlate = []experiment.Fault{
		on(experiment.FaultDrop, "serving"), on(experiment.FaultDrop, "standby"), on(experiment.FaultDrop, "client"),
		on(experiment.FaultLoss, "serving"), on(experiment.FaultLoss, "standby"), on(experiment.FaultLoss, "client"),
		on(experiment.FaultDelay, "serving"), on(experiment.FaultDelay, "standby"), on(experiment.FaultDelay, "client"),
		on(experiment.FaultSerialCut, ""),
	}
	benignClientSlate = []experiment.Fault{
		on(experiment.FaultDrop, "client"), on(experiment.FaultLoss, "client"), on(experiment.FaultDelay, "client"),
	}
	fatalSlate = []experiment.Fault{
		on(experiment.FaultCrash, "serving"), on(experiment.FaultCrash, "serving"), on(experiment.FaultCrash, "serving"),
		on(experiment.FaultCrash, "standby"), on(experiment.FaultCrash, "standby"),
		on(experiment.FaultAppCrashSilent, "serving"), on(experiment.FaultAppCrashSilent, "serving"),
		on(experiment.FaultAppCrashSilent, "standby"),
		on(experiment.FaultNICFail, "serving"),
		on(experiment.FaultNICFail, "standby"),
	}
	graySlate = []experiment.Fault{
		on(experiment.FaultStarve, "serving"), on(experiment.FaultStarve, "serving"), on(experiment.FaultStarve, "serving"),
		on(experiment.FaultTxCut, "serving"), on(experiment.FaultTxCut, "serving"),
		on(experiment.FaultCorrupt, "serving"), on(experiment.FaultCorrupt, "serving"),
		on(experiment.FaultSerialCorrupt, ""), on(experiment.FaultSerialCorrupt, ""),
		on(experiment.FaultNICFlap, "serving"), on(experiment.FaultNICFlap, "serving"),
		on(experiment.FaultSerialFlap, ""),
		on(experiment.FaultClockSkew, "standby"), on(experiment.FaultClockSkew, "standby"),
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

// Generate draws the campaign's randomized plan for seed: its seed, 60 s
// horizon, clients and faults, which strike in At order; the same seed
// drives the run (sim.NewRand is the audited seeding point). The generator
// biases toward interesting structure: every plan starts a client at t=0
// and injects at least one fault; fatal faults land early (30 % inside the
// connection-establishment window) so handshake races are exercised; a
// fatal fault on the serving side may chain into a rejoin, a second
// client, and a second fatal fault — the double-failover path. The order of
// the draws below is the contract the pinned seeds and campaign digests
// hold: a bound may move, a draw may not.
func Generate(campaign Campaign, seed int64) experiment.Plan {
	rng := sim.NewRand(seed)
	p := experiment.Plan{Horizon: 60 * time.Second}
	p.Seed = seed

	w := experiment.Workload{Gap: 3 * time.Millisecond}
	if rng.Intn(2) == 0 {
		w.Bytes = int64(1+rng.Intn(4)) << 20
	} else {
		w.Echo = true
		w.Rounds = 150 + rng.Intn(250)
		w.MsgSize = 256 + rng.Intn(1280)
	}
	p.Clients = []experiment.Workload{w}

	// Benign background noise.
	benign, maxBenign := benignSlate, 3
	if campaign == CampaignGray {
		benign, maxBenign = benignClientSlate, 2
	}
	nBenign := rng.Intn(maxBenign + 1)
	for i := 0; i < nBenign; i++ {
		at := dur(rng, 0, 3*time.Second)
		f := benign[rng.Intn(len(benign))]
		f.At = at
		switch f.Kind {
		case experiment.FaultDrop:
			// Drops stay shorter than the 600 ms HB timeout: they must
			// never cause a spurious failover on a server link.
			f.Dur = dur(rng, 50*time.Millisecond, 400*time.Millisecond)
		case experiment.FaultLoss:
			f.Rate = uniform(rng, 0.05, 0.25)
			f.Dur = dur(rng, 200*time.Millisecond, 2*time.Second)
		case experiment.FaultDelay:
			f.Delay = dur(rng, time.Millisecond, 20*time.Millisecond)
			f.Dur = dur(rng, 100*time.Millisecond, 2*time.Second)
		}
		p.Faults = append(p.Faults, f)
	}

	if campaign == CampaignGray {
		generateGray(rng, &p)
	} else if nBenign == 0 || rng.Float64() < 0.75 {
		// A noise-free plan always gets its fatal fault.
		generateFatal(rng, &p)
	}

	slices.SortStableFunc(p.Faults, func(a, b experiment.Fault) int { return cmp.Compare(a.At, b.At) })
	return p
}

// generateFatal appends the crisp fault, biased toward the handshake
// window, and with it the double-failover chain.
func generateFatal(rng *rand.Rand, p *experiment.Plan) {
	f := fatalSlate[rng.Intn(len(fatalSlate))]
	if rng.Float64() < 0.30 {
		f.At = dur(rng, 0, 300*time.Millisecond)
	} else {
		f.At = dur(rng, 0, 1200*time.Millisecond)
	}
	if f.Kind == experiment.FaultAppCrashSilent && rng.Float64() < 0.33 {
		f.Kind = experiment.FaultAppCrashCleanup
	}
	p.Faults = append(p.Faults, f)

	// A serving-side fatal fault can chain into the repair loop and a
	// second failover generation: a rejoin, then perhaps a second client,
	// then perhaps a second kill.
	servingFatal := f.Host == "serving" && f.Kind != experiment.FaultAppCrashCleanup
	if !servingFatal || rng.Float64() >= 0.5 {
		return
	}
	rejoinAt := f.At + 4*time.Second + dur(rng, 0, 2*time.Second)
	p.Faults = append(p.Faults, experiment.Fault{At: rejoinAt, Kind: experiment.FaultRejoin})
	if rng.Float64() >= 0.6 {
		return
	}
	second := p.Clients[0]
	second.At = rejoinAt + dur(rng, 0, time.Second)
	p.Clients = append(p.Clients, second)
	if rng.Float64() >= 0.6 {
		return
	}
	kill := on(experiment.FaultCrash, "serving")
	if rng.Intn(2) == 0 {
		kill.Host = "standby"
	}
	kill.At = second.At + dur(rng, 200*time.Millisecond, 1500*time.Millisecond)
	p.Faults = append(p.Faults, kill)
}

// generateGray appends the gray block. The first draw decides the plan's
// class: a verdict kind (starve, asym partition) makes the whole plan
// verdict-class — exactly one detection target — while anything else
// yields a noise-class mix of up to three distinct kinds that the
// detectors must ride out without a verdict (gray-quiescence).
func generateGray(rng *rand.Rand, p *experiment.Plan) {
	// Every gray plan runs a long echo workload: the suspicion scorer
	// needs response traffic in flight from fault to verdict, and
	// noise-class windows must overlap dense two-way traffic or their
	// fingerprint (checksum rejects on a near-idle link) is left to
	// chance. ~4 ms/round keeps the stream flowing past the last window.
	w := &p.Clients[0]
	w.Echo, w.Bytes = true, 0
	w.Rounds = 900 + rng.Intn(300)
	w.MsgSize = 256 + rng.Intn(768)
	verdict := func(f experiment.Fault) bool {
		return f.Kind == experiment.FaultStarve || f.Kind == experiment.FaultTxCut
	}
	first := graySlate[rng.Intn(len(graySlate))]
	if verdict(first) {
		p.Faults = append(p.Faults, grayFault(rng, first))
		// A verdict-class plan may also skew the standby's clock:
		// detection must still meet its deadline with a mildly off-rate
		// observer.
		if rng.Float64() < 0.35 {
			p.Faults = append(p.Faults, grayFault(rng, on(experiment.FaultClockSkew, "standby")))
		}
		return
	}
	n := 1 + rng.Intn(3)
	seen := make(map[experiment.Fault]bool)
	add := func(f experiment.Fault) {
		if seen[f] || verdict(f) {
			return // dedup; verdict kinds never join a noise plan
		}
		seen[f] = true
		p.Faults = append(p.Faults, grayFault(rng, f))
	}
	add(first)
	for i := 1; i < n; i++ {
		add(graySlate[rng.Intn(len(graySlate))])
	}
}

// grayFault draws one gray fault's placement and parameters.
func grayFault(rng *rand.Rand, f experiment.Fault) experiment.Fault {
	f.At = dur(rng, 800*time.Millisecond, 2*time.Second)
	switch f.Kind {
	case experiment.FaultStarve:
		// Starvation stretch: staleness observed by the scorer is roughly
		// (Scale-1)ms per processing quantum plus heartbeat staleness, so
		// the floor sits comfortably above the 400 ms response SLO.
		f.Scale = uniform(rng, 450, 800)
		f.Dur = dur(rng, 6*time.Second, 10*time.Second)
	case experiment.FaultTxCut:
		// Long enough for grace (1s) + hold (1s) + ping turnaround, short
		// enough that the link is restored within the horizon.
		f.Dur = dur(rng, 5*time.Second, 8*time.Second)
	case experiment.FaultCorrupt:
		// LAN corruption bounded so the resulting retransmission stalls
		// keep the suspicion bucket below threshold.
		f.Rate = uniform(rng, 0.05, 0.10)
		f.Dur = dur(rng, 800*time.Millisecond, 1500*time.Millisecond)
	case experiment.FaultSerialCorrupt:
		// Serial heartbeats flow at only 5/s, so the rate and window are
		// sized for the CRC-error fingerprint to be near-certain (≥ 25
		// frames cross both ports in the shortest window; at the floor
		// rate the no-reject probability is under 0.02%).
		f.Rate = uniform(rng, 0.30, 0.45)
		f.Dur = dur(rng, 2500*time.Millisecond, 4*time.Second)
	case experiment.FaultNICFlap, experiment.FaultSerialFlap:
		// Flap cycles well under the 600 ms HB timeout.
		f.Period = dur(rng, 100*time.Millisecond, 250*time.Millisecond)
		f.Dur = dur(rng, 1500*time.Millisecond, 3*time.Second)
	case experiment.FaultClockSkew:
		// Skew magnitude past the 8% drift-note threshold, long enough
		// for the EWMA to converge.
		f.Scale = uniform(rng, 1.10, 1.15)
		if rng.Intn(2) == 0 {
			f.Scale = 1 / f.Scale // fast clock instead of slow
		}
		f.Dur = dur(rng, 6*time.Second, 9*time.Second)
	}
	return f
}

// Describe renders a plan the way a chaos report shows it: its seed,
// workload and horizon, then one line per client start and fault in the
// order they fall due, e.g. "@480ms loss-standby rate=0.18 dur=1.2s".
func Describe(p experiment.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d workload=", p.Seed)
	if w := p.Clients[0]; w.Echo {
		fmt.Fprintf(&b, "echo rounds=%d msgsize=%d", w.Rounds, w.MsgSize)
	} else {
		fmt.Fprintf(&b, "download bytes=%d", w.Bytes)
	}
	fmt.Fprintf(&b, " horizon=%v\n", p.Horizon)
	for _, e := range events(p) {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// Signature identifies the structure of a plan independent of its seed, so
// a campaign can count how many distinct plans it explored.
func Signature(p experiment.Plan) string {
	d := Describe(p)
	return d[strings.Index(d, " workload="):]
}

// events renders the plan's client starts and faults in the order they
// fall due; at a shared instant a client starts first, as Plan.Run inserts
// the client starts ahead of the faults.
func events(p experiment.Plan) []string {
	type event struct {
		at   time.Duration
		text string
	}
	var evs []event
	for i, w := range p.Clients {
		evs = append(evs, event{w.At, fmt.Sprintf("@%v %s", w.At, clientName(i))})
	}
	for _, f := range p.Faults {
		evs = append(evs, event{f.At, faultString(f)})
	}
	slices.SortStableFunc(evs, func(a, b event) int { return cmp.Compare(a.at, b.at) })
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.text
	}
	return out
}

// clientName is what reports call the start of the plan's client i.
func clientName(i int) string {
	if i == 0 {
		return "client-start"
	}
	return "second-client"
}

// faultString renders one fault by its row's name, with every parameter it
// carries.
func faultString(f experiment.Fault) string {
	var b strings.Builder
	name := string(f.Kind) + "-" + f.Host
	if r := rowOf(f); r != nil {
		name = r.name
	}
	fmt.Fprintf(&b, "@%v %s", f.At, name)
	if f.Rate != 0 {
		fmt.Fprintf(&b, " rate=%.2f", f.Rate)
	}
	if f.Delay != 0 {
		fmt.Fprintf(&b, " delay=%v", f.Delay)
	}
	if f.Scale != 0 {
		fmt.Fprintf(&b, " scale=%.3g", f.Scale)
	}
	if f.Period != 0 {
		fmt.Fprintf(&b, " period=%v", f.Period)
	}
	if f.Dur != 0 {
		fmt.Fprintf(&b, " dur=%v", f.Dur)
	}
	if f.Kind == experiment.FaultAppCrashCleanup {
		b.WriteString(" cleanup")
	}
	return b.String()
}
