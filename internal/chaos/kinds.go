package chaos

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/sttcp"
)

// role says whom an event kind strikes. fire resolves it to a machine at
// injection time, which keeps double-failover schedules meaningful after a
// rejoin has swapped the machines' roles.
type role int

const (
	nobody  role = iota // a workload or repair step, not a fault
	serving             // whichever node currently transmits to the client
	standby             // the active backup; nil while fault tolerance is lost
	client              // the client machine
	cable               // the null-modem serial cable, which is no host's
)

// kind is one row of the event-kind table: what chaos itself knows about an
// EventKind. The physical act is not here — fault names it in the testbed's
// vocabulary and experiment.Testbed performs (and, for a windowed kind,
// reverts) it.
type kind struct {
	name   string
	target role
	// suffix completes the inject note's target: "primary link",
	// "primary outbound", "serial cable".
	suffix string
	// fatal marks the crisp Table 1 faults; once one ran, gray-quiescence
	// (which demands zero verdicts) no longer applies to the run.
	fatal bool
	// guard vets the event before anything mutates; a non-empty answer is
	// the skip reason. Guards keep every generated schedule survivable —
	// the invariants demand that all clients finish, so nothing stacks a
	// second fatal fault onto a cluster that has not regained redundancy —
	// and are deterministic functions of the world and the harness's own
	// notes, so a replayed seed skips exactly the same events.
	guard check
	// fault translates the event for the resolved host; its parameters are
	// vetted by the testbed, whose refusal skips the event too.
	fault func(ev Event, host string) experiment.Fault
	// step performs a kind that is not a fault and traces it itself.
	step func(h *harness, ev Event) error
	// after records what an injected fault obliges the harness to
	// remember, and what the gray invariants may expect of it.
	after func(h *harness, ev Event, t *cluster.Host)
}

// kinds is indexed by EventKind, in the order of the constants.
var kinds = [...]kind{
	EvClientStart:  {name: "client-start", target: serving, guard: reachable, step: (*harness).startClient},
	EvSecondClient: {name: "second-client", target: serving, guard: reachable, step: (*harness).startClient},

	EvCrashServing: {
		name: "crash-serving", target: serving, fatal: true,
		guard: all(unless(running, "serving host already down"), takeover, committed),
		fault: strike(experiment.FaultCrash),
	},
	EvCrashStandby: {
		name: "crash-standby", target: standby, fatal: true,
		guard: all(haveStandby, unless(servingHealthy, "serving side unhealthy; killing the standby would lose service")),
		fault: strike(experiment.FaultCrash),
	},
	EvAppCrashServing: {
		name: "appcrash-serving", target: serving, fatal: true,
		guard: all(unless(appRunning, "serving application already gone"), takeover, committed),
		fault: appCrash,
	},
	EvAppCrashStandby: {
		name: "appcrash-standby", target: standby, fatal: true,
		guard: all(haveStandby, unless(appRunning, "standby application already crashed"), servingUp),
		fault: appCrash,
	},
	// With the serial line gone a NIC failure is indistinguishable from a
	// full crash from BOTH sides: whichever server detects total silence
	// first STONITHs the other, and if the healthy one loses that race the
	// service dies. The real testbed has the same exposure; the harness
	// only injects survivable combinations.
	EvNICFailServing: {
		name: "nicfail-serving", target: serving, fatal: true,
		guard: all(unless(serialIntact, "serial already cut; NIC failure would be an unsurvivable double fault"),
			takeover, committed, nicAlive),
		fault: strike(experiment.FaultNICFail),
	},
	EvNICFailStandby: {
		name: "nicfail-standby", target: standby, fatal: true,
		guard: all(unless(serialIntact, "serial already cut; NIC failure would be an unsurvivable double fault"),
			haveStandby, servingUp, nicAlive),
		fault: strike(experiment.FaultNICFail),
	},
	// A loss burst can silence enough IP heartbeats that, with serial also
	// gone, a healthy peer gets STONITHed: cuts wait out the loss window.
	EvSerialCut: {
		name: "serial-cut", target: cable, suffix: "serial cable", fatal: true,
		guard: all(serialPlugged,
			unless(serverNICsUp, "a server NIC is down; cutting serial too would be an unsurvivable double fault"),
			lossSettled),
		fault: strike(experiment.FaultSerialCut),
		after: func(h *harness, _ Event, _ *cluster.Host) { h.serialCut = true },
	},

	EvDropServing: {
		name: "drop-serving", target: serving, suffix: " link",
		guard: liveServing,
		fault: strike(experiment.FaultDrop),
	},
	EvDropStandby: {
		name: "drop-standby", target: standby, suffix: " link",
		guard: liveStandby,
		fault: strike(experiment.FaultDrop),
		after: func(h *harness, ev Event, _ *cluster.Host) { h.noteStandbyRisk(ev.Dur) },
	},
	EvDropClient: {name: "drop-client", target: client, suffix: " link", fault: strike(experiment.FaultDrop)},
	EvLossServing: {
		name: "loss-serving", target: serving, suffix: " link",
		guard: all(liveServing, hbRedundant),
		fault: strike(experiment.FaultLoss),
		after: func(h *harness, ev Event, _ *cluster.Host) { h.extendLossWindow(ev.Dur) },
	},
	EvLossStandby: {
		name: "loss-standby", target: standby, suffix: " link",
		guard: all(liveStandby, hbRedundant),
		fault: strike(experiment.FaultLoss),
		after: func(h *harness, ev Event, _ *cluster.Host) {
			h.extendLossWindow(ev.Dur)
			h.noteStandbyRisk(ev.Dur)
		},
	},
	EvLossClient: {name: "loss-client", target: client, suffix: " link", fault: strike(experiment.FaultLoss)},
	EvDelayServing: {
		name: "delay-serving", target: serving, suffix: " link",
		guard: liveServing,
		fault: strike(experiment.FaultDelay),
	},
	EvDelayStandby: {
		name: "delay-standby", target: standby, suffix: " link",
		guard: liveStandby,
		fault: strike(experiment.FaultDelay),
	},
	EvDelayClient: {name: "delay-client", target: client, suffix: " link", fault: strike(experiment.FaultDelay)},

	EvRejoin: {
		name: "rejoin",
		guard: func(h *harness, _ *cluster.Host) string {
			if survivor := h.lc.BackupNode(); survivor.State() != sttcp.StateTakenOver {
				return fmt.Sprintf("survivor is %v, not taken-over", survivor.State())
			}
			return ""
		},
		step: (*harness).rejoin,
	},

	EvStarveServing: {
		name: "starve-serving", target: serving,
		guard: all(servingFit, takeover, committed),
		fault: strike(experiment.FaultStarve),
		after: expectStarveVerdict,
	},
	EvAsymPartition: {
		name: "asym-partition", target: serving, suffix: " outbound",
		guard: all(unless(serialIntact, "serial is cut; the asymmetry verdict needs the serial path"),
			servingFit, takeover, committed),
		fault: strike(experiment.FaultTxCut),
		after: expectAsymVerdict,
	},
	EvCorruptServing: {
		name: "corrupt-serving", target: serving, suffix: " link",
		guard: all(unless(serialIntact, "serial is cut; corruption-dropped heartbeats could STONITH a healthy peer"),
			liveServing),
		fault: strike(experiment.FaultCorrupt),
		after: observeLinkCorruption,
	},
	EvCorruptSerial: {
		name: "corrupt-serial", target: cable, suffix: "serial cable",
		guard: all(serialPlugged,
			unless(serverNICsUp, "a server NIC is down; serial noise on top risks an unsurvivable double fault")),
		fault: strike(experiment.FaultSerialCorrupt),
		after: observeSerialCorruption,
	},
	EvNICFlap: {
		name: "nicflap-serving", target: serving, suffix: " link",
		guard: all(unless(serialIntact, "serial already cut; NIC flapping would be an unsurvivable double fault"),
			servingFit, takeover, committed),
		fault: strike(experiment.FaultNICFlap),
		after: func(h *harness, ev Event, _ *cluster.Host) {
			h.flapApplied = true
			// The link is unreliable for the whole window plus however
			// long the heartbeat view takes to settle afterwards.
			h.extendLossWindow(ev.Dur + h.cfg.HB.Timeout)
		},
	},
	EvSerialFlap: {
		name: "serialflap", target: cable, suffix: "serial cable",
		guard: all(serialPlugged,
			unless(serverNICsUp, "a server NIC is down; flapping serial too risks an unsurvivable double fault"),
			lossSettled),
		fault: strike(experiment.FaultSerialFlap),
		after: func(h *harness, _ Event, _ *cluster.Host) { h.flapApplied = true },
	},
	EvClockSkew: {
		name: "clockskew-standby", target: standby,
		guard: haveStandby,
		fault: strike(experiment.FaultClockSkew),
		after: expectDriftNote,
	},
}

// strike builds the fault of the given kind on the resolved host, carrying
// every parameter the event has; the testbed reads the one its kind names.
func strike(k experiment.FaultKind) func(Event, string) experiment.Fault {
	return func(ev Event, host string) experiment.Fault {
		return experiment.Fault{Kind: k, Host: host, Dur: ev.Dur, Scale: ev.Scale, Rate: ev.Rate, Delay: ev.Delay, Period: ev.Period}
	}
}

func appCrash(ev Event, host string) experiment.Fault {
	if ev.Cleanup {
		return experiment.Fault{Kind: experiment.FaultAppCrashCleanup, Host: host}
	}
	return experiment.Fault{Kind: experiment.FaultAppCrashSilent, Host: host}
}

// String names the kind, per the table.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(kinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// ParseEventKind resolves a kind's command-line spelling (the String form,
// e.g. "crash-serving").
func ParseEventKind(s string) (EventKind, error) {
	for k := range kinds {
		if kinds[k].name == s {
			return EventKind(k), nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown event kind %q", s)
}

// check is one guard: the reason an event must be skipped, or "". t is the
// resolved target (nil for the cable, for steps, and for a standby that is
// not there — which haveStandby and liveStandby turn into a reason before
// any later check touches it).
type check func(h *harness, t *cluster.Host) string

// all runs checks in order and answers with the first reason.
func all(cs ...check) check {
	return func(h *harness, t *cluster.Host) string {
		for _, c := range cs {
			if why := c(h, t); why != "" {
				return why
			}
		}
		return ""
	}
}

func unless(ok func(h *harness, t *cluster.Host) bool, why string) check {
	return func(h *harness, t *cluster.Host) string {
		if ok(h, t) {
			return ""
		}
		return why
	}
}

func present(_ *harness, t *cluster.Host) bool { return t != nil }
func running(_ *harness, t *cluster.Host) bool { return !t.Crashed() }
func appRunning(h *harness, t *cluster.Host) bool {
	return !t.Crashed() && !h.tb.Server(t.Name()).Crashed()
}
func servingHealthy(h *harness, _ *cluster.Host) bool { return h.healthy(h.servingNode().Host()) }
func serialIntact(h *harness, _ *cluster.Host) bool   { return !h.serialCut }
func serverNICsUp(h *harness, _ *cluster.Host) bool {
	return !nicDown(h.tb.Primary) && !nicDown(h.tb.Backup)
}

var (
	reachable     = unless(servingHealthy, "service is not reachable right now")
	servingFit    = unless(servingHealthy, "serving host unhealthy")
	servingUp     = unless(servingHealthy, "serving side unhealthy")
	liveServing   = unless(running, "no live target link")
	nicAlive      = unless(func(_ *harness, t *cluster.Host) bool { return !t.NIC().Failed() }, "target NIC already dead")
	serialPlugged = unless(serialIntact, "serial already cut")
	hbRedundant   = unless(serialIntact, "serial is cut; heartbeat loss could STONITH a healthy peer")
	haveStandby   = unless(present, "no active standby")
	liveStandby   = unless(present, "no live target link")
	lossSettled   = unless(func(h *harness, _ *cluster.Host) bool { return h.tb.Sim.Elapsed() >= h.lossUntil },
		"loss window active on a server link")

	// takeover guards every fault that hands service to the standby: there
	// must be a healthy one, and it must hold a replica of every unfinished
	// connection.
	takeover = all(
		unless(func(h *harness, _ *cluster.Host) bool {
			sb := h.standbyNode()
			return sb != nil && h.healthy(sb.Host())
		}, "no healthy standby to take over"),
		unless(func(h *harness, _ *cluster.Host) bool { return h.clientsSurviveServingLoss() },
			"unfinished pre-rejoin connection is local-only on the serving host"))
	// committed guards the faults that silence the serving machine
	// outright (see harness.standbyRiskUntil).
	committed = unless(func(h *harness, _ *cluster.Host) bool { return h.tb.Sim.Elapsed() >= h.standbyRiskUntil },
		"standby link was recently lossy; ACKed-byte recovery may be in flight (§4.3 output-commit window)")
)

// fire injects one scheduled event, or records why it was skipped: resolve
// the target, ask the guard, arm the fault on the testbed (which vets its
// parameters), trace the injection before anything mutates — so the trace
// shows cause before effect — strike, and book what the harness must
// remember.
func (h *harness) fire(ev Event) {
	if ev.Kind < 0 || int(ev.Kind) >= len(kinds) {
		h.skip(ev, "unknown event kind")
		return
	}
	k, host := &kinds[ev.Kind], ""
	t := h.resolve(k.target)
	if t != nil {
		host = t.Name()
	}
	if k.guard != nil {
		if why := k.guard(h, t); why != "" {
			h.skip(ev, why)
			return
		}
	}
	if k.step != nil {
		if err := k.step(h, ev); err != nil {
			h.skip(ev, err.Error())
			return
		}
	} else {
		act, err := h.tb.Arm(k.fault(ev, host))
		if err != nil {
			h.skip(ev, err.Error())
			return
		}
		h.note(ev, host+k.suffix)
		act()
	}
	h.injected[ev.Kind]++
	h.fatalInjected = h.fatalInjected || k.fatal
	if k.after != nil {
		k.after(h, ev, t)
	}
}

func (h *harness) resolve(r role) *cluster.Host {
	switch r {
	case serving:
		return h.servingNode().Host()
	case standby:
		if n := h.standbyNode(); n != nil {
			return n.Host()
		}
	case client:
		return h.tb.Client
	}
	return nil
}
