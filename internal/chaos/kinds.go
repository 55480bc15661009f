package chaos

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/hb"
	"repro/internal/sttcp"
)

// role says whom an event kind strikes. inject resolves it to a machine at
// injection time, which keeps double-failover schedules meaningful after a
// rejoin has swapped the machines' roles.
type role int

const (
	cable   role = iota // the null-modem serial cable, which is no host's
	serving             // whichever node currently transmits to the client
	standby             // the active backup; nil while fault tolerance is lost
	client              // the client machine
	failed              // the failed primary's machine, which a rejoin repairs
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
	// fault translates the event (nil for the client starts, which become
	// the plan's clients); fire names the resolved host on it, and the
	// testbed vets its parameters, whose refusal skips the event too.
	fault func(ev Event) experiment.Fault
	// after records what an injected fault obliges the harness to
	// remember, and what the gray invariants may expect of it.
	after func(h *harness, ev Event, t *cluster.Host)
}

// kinds is indexed by EventKind, in the order of the constants.
var kinds = [...]kind{
	EvClientStart:  {name: "client-start", target: serving, guard: reachable},
	EvSecondClient: {name: "second-client", target: serving, guard: reachable},

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
		name: "rejoin", target: failed,
		guard: func(h *harness, _ *cluster.Host) string {
			if survivor := h.tb.BackupNode; survivor.State() != sttcp.StateTakenOver {
				return fmt.Sprintf("survivor is %v, not taken-over", survivor.State())
			}
			return ""
		},
		fault: strike(experiment.FaultRejoin),
		// The testbed swapped the roles and replaced a cut cable; the
		// clients started so far are local-only on the survivor.
		after: func(h *harness, _ Event, _ *cluster.Host) {
			h.serialCut = false
			h.preRejoin = len(h.run.Clients)
			h.hookNode(h.tb.BackupNode)
		},
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
			h.extendLossWindow(ev.Dur + hb.Timeout(h.cfg.HBPeriod))
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

// strike builds the fault of the given kind, carrying every parameter the
// event has; the testbed reads the one its kind names.
func strike(k experiment.FaultKind) func(Event) experiment.Fault {
	return func(ev Event) experiment.Fault {
		return experiment.Fault{Kind: k, Dur: ev.Dur, Scale: ev.Scale, Rate: ev.Rate, Delay: ev.Delay, Period: ev.Period}
	}
}

func appCrash(ev Event) experiment.Fault {
	if ev.Cleanup {
		return experiment.Fault{Kind: experiment.FaultAppCrashCleanup}
	}
	return experiment.Fault{Kind: experiment.FaultAppCrashSilent}
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
// resolved target (nil for the cable, and for a standby that is not there
// — which haveStandby and liveStandby turn into a reason before any later
// check touches it).
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
func servingHealthy(h *harness, _ *cluster.Host) bool { return h.healthy(h.tb.Serving().Host()) }
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
			sb := h.tb.Standby()
			return sb != nil && h.healthy(sb.Host())
		}, "no healthy standby to take over"),
		// Connections opened before the last rejoin are local-only on the
		// survivor (reintegration does not replicate them): they die with it.
		unless(func(h *harness, _ *cluster.Host) bool { return allDone(h.run.Clients[:h.preRejoin]) },
			"unfinished pre-rejoin connection is local-only on the serving host"))
	// committed guards the faults that silence the serving machine
	// outright (see harness.standbyRiskUntil).
	committed = unless(func(h *harness, _ *cluster.Host) bool { return h.tb.Sim.Elapsed() >= h.standbyRiskUntil },
		"standby link was recently lossy; ACKed-byte recovery may be in flight (§4.3 output-commit window)")
)

// healthy reports whether the host is fully up: not crashed, NIC alive,
// application alive. All three are read from the world (a crash fails the
// NIC and Reboot recovers it; a rejoin installs a fresh replica).
func (h *harness) healthy(host *cluster.Host) bool {
	return !host.NIC().Failed() && !h.tb.Server(host.Name()).Crashed()
}

// nicDown reports a machine that is running with a dead NIC — the state
// in which the serial line is its only voice.
func nicDown(host *cluster.Host) bool { return host.NIC().Failed() && !host.Crashed() }

// noteStandbyRisk records that the standby's inbound link is unreliable
// for d, plus a grace period for any in-flight missed-byte recovery.
func (h *harness) noteStandbyRisk(d time.Duration) {
	h.standbyRiskUntil = max(h.standbyRiskUntil, h.tb.Sim.Elapsed()+d+500*time.Millisecond)
}

// extendLossWindow records that a server link is unreliable for d from
// now.
func (h *harness) extendLossWindow(d time.Duration) {
	h.lossUntil = max(h.lossUntil, h.tb.Sim.Elapsed()+d)
}

// inject fires one due event: its row's guard vets it, act performs it,
// and what the row obliges the harness to remember is booked. An event the
// guard refuses, or whose act fails, is recorded as skipped.
func (h *harness) inject(ev Event, act func(t *cluster.Host) error) {
	if ev.Kind < 0 || int(ev.Kind) >= len(kinds) {
		h.skip(ev, "unknown event kind")
		return
	}
	k := &kinds[ev.Kind]
	t := h.resolve(k.target)
	why := ""
	if k.guard != nil {
		why = k.guard(h, t)
	}
	if why == "" {
		if err := act(t); err != nil {
			why = err.Error()
		}
	}
	if why != "" {
		h.skip(ev, why)
		return
	}
	h.injected[k.name]++
	h.fatalInjected = h.fatalInjected || k.fatal
	if k.after != nil {
		k.after(h, ev, t)
	}
}

// fire is the plan's Judge.Fire: fault i falls due. It strikes the
// resolved host, armed on the testbed (which vets its parameters) and
// traced before anything mutates, so the trace shows cause before effect.
func (h *harness) fire(i int, f experiment.Fault) {
	ev := h.strikes[i]
	h.inject(ev, func(t *cluster.Host) error {
		if t != nil {
			f.Host = t.Name()
		}
		act, err := h.tb.Arm(f)
		if err != nil {
			return err
		}
		h.note(ev, f.Host+kinds[ev.Kind].suffix)
		return act()
	})
}

// start is the plan's Judge.Start: client-start event i falls due.
func (h *harness) start(i int) {
	ev := h.starts[i]
	h.inject(ev, func(*cluster.Host) error {
		cl, err := h.run.StartClient(i)
		if err == nil {
			h.note(ev, cl.Name())
		}
		return err
	})
}

func (h *harness) resolve(r role) *cluster.Host {
	switch r {
	case serving:
		return h.tb.Serving().Host()
	case standby:
		if n := h.tb.Standby(); n != nil {
			return n.Host()
		}
	case client:
		return h.tb.Client
	case failed:
		return h.tb.PrimaryNode.Host()
	}
	return nil
}
