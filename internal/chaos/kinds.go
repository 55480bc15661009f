package chaos

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/hb"
	"repro/internal/sttcp"
)

// row is chaos's policy for one fault template, a kind striking a host or
// role: what reports call it, when striking it is survivable, and what a
// fault that struck obliges the harness to remember. The physical act is
// not here — experiment.Testbed resolves the role, performs the fault and
// (for a windowed kind) reverts it — and neither is any verdict: the
// invariant registry judges every run.
type row struct {
	kind experiment.FaultKind
	host string
	name string
	// suffix completes the inject note's target: "primary link",
	// "primary outbound", "serial cable".
	suffix string
	// guard vets the fault as it falls due, before anything mutates; a
	// non-empty answer is the skip reason (Judge.Fire's veto). Guards keep
	// every drawn plan survivable — the invariants demand that all clients
	// finish, so nothing stacks a second fatal fault onto a cluster that
	// has not regained redundancy — and are deterministic functions of the
	// world and the harness's own notes, so a replayed seed skips exactly
	// the same faults.
	guard check
	// after records what a fault that struck obliges the harness to
	// remember for later guards.
	after func(h *harness, f experiment.Fault)
}

// With the serial line gone a NIC failure is indistinguishable from a
// full crash from BOTH sides: whichever server detects total silence
// first STONITHs the other, and if the healthy one loses that race the
// service dies. The real testbed has the same exposure; the harness only
// injects survivable combinations. Likewise a loss burst can silence
// enough IP heartbeats that, with serial also gone, a healthy peer gets
// STONITHed: cuts wait out the loss window.
var (
	crashServing    = all(unless(running, "serving host already down"), takeover, committed)
	crashStandby    = all(haveStandby, unless(servingHealthy, "serving side unhealthy; killing the standby would lose service"))
	appCrashServing = all(unless(appRunning, "serving application already gone"), takeover, committed)
	appCrashStandby = all(haveStandby, unless(appRunning, "standby application already crashed"), servingUp)
	nicSerialFirst  = unless(serialIntact, "serial already cut; NIC failure would be an unsurvivable double fault")
)

// rows holds one row per fault template a plan of this package draws.
// FaultNamed answers with the first row of a name, so an application
// crash spelled on the command line is the silent one.
var rows = []row{
	{kind: experiment.FaultCrash, host: "serving", name: "crash-serving", guard: crashServing},
	{kind: experiment.FaultCrash, host: "standby", name: "crash-standby", guard: crashStandby},
	{kind: experiment.FaultAppCrashSilent, host: "serving", name: "appcrash-serving", guard: appCrashServing},
	{kind: experiment.FaultAppCrashCleanup, host: "serving", name: "appcrash-serving", guard: appCrashServing},
	{kind: experiment.FaultAppCrashSilent, host: "standby", name: "appcrash-standby", guard: appCrashStandby},
	{kind: experiment.FaultAppCrashCleanup, host: "standby", name: "appcrash-standby", guard: appCrashStandby},
	{kind: experiment.FaultNICFail, host: "serving", name: "nicfail-serving",
		guard: all(nicSerialFirst, takeover, committed, nicAlive)},
	{kind: experiment.FaultNICFail, host: "standby", name: "nicfail-standby",
		guard: all(nicSerialFirst, haveStandby, servingUp, nicAlive)},
	{kind: experiment.FaultSerialCut, name: "serial-cut", suffix: "serial cable",
		guard: all(serialPlugged,
			unless(serverNICsUp, "a server NIC is down; cutting serial too would be an unsurvivable double fault"),
			lossSettled),
		after: func(h *harness, _ experiment.Fault) { h.serialCut = true }},

	{kind: experiment.FaultDrop, host: "serving", name: "drop-serving", suffix: " link", guard: liveServing},
	{kind: experiment.FaultDrop, host: "standby", name: "drop-standby", suffix: " link", guard: liveStandby,
		after: func(h *harness, f experiment.Fault) { h.noteStandbyRisk(f.Dur) }},
	{kind: experiment.FaultDrop, host: "client", name: "drop-client", suffix: " link", guard: none},
	{kind: experiment.FaultLoss, host: "serving", name: "loss-serving", suffix: " link", guard: all(liveServing, hbRedundant),
		after: func(h *harness, f experiment.Fault) { h.extendLossWindow(f.Dur) }},
	{kind: experiment.FaultLoss, host: "standby", name: "loss-standby", suffix: " link", guard: all(liveStandby, hbRedundant),
		after: func(h *harness, f experiment.Fault) {
			h.extendLossWindow(f.Dur)
			h.noteStandbyRisk(f.Dur)
		}},
	{kind: experiment.FaultLoss, host: "client", name: "loss-client", suffix: " link", guard: none},
	{kind: experiment.FaultDelay, host: "serving", name: "delay-serving", suffix: " link", guard: liveServing},
	{kind: experiment.FaultDelay, host: "standby", name: "delay-standby", suffix: " link", guard: liveStandby},
	{kind: experiment.FaultDelay, host: "client", name: "delay-client", suffix: " link", guard: none},

	{kind: experiment.FaultRejoin, name: "rejoin",
		guard: func(h *harness, _ *cluster.Host) string {
			if survivor := h.tb.BackupNode; survivor.State() != sttcp.StateTakenOver {
				return fmt.Sprintf("survivor is %v, not taken-over", survivor.State())
			}
			return ""
		},
		// The testbed swapped the roles and replaced a cut cable; the
		// clients started so far are local-only on the survivor.
		after: func(h *harness, _ experiment.Fault) {
			h.serialCut = false
			h.preRejoin = len(h.run.Clients)
		}},

	{kind: experiment.FaultStarve, host: "serving", name: "starve-serving", guard: all(servingFit, takeover, committed)},
	{kind: experiment.FaultTxCut, host: "serving", name: "asym-partition", suffix: " outbound",
		guard: all(unless(serialIntact, "serial is cut; the asymmetry verdict needs the serial path"),
			servingFit, takeover, committed)},
	{kind: experiment.FaultCorrupt, host: "serving", name: "corrupt-serving", suffix: " link",
		guard: all(unless(serialIntact, "serial is cut; corruption-dropped heartbeats could STONITH a healthy peer"),
			liveServing),
		after: func(h *harness, f experiment.Fault) { h.extendLossWindow(f.Dur) }},
	{kind: experiment.FaultSerialCorrupt, name: "corrupt-serial", suffix: "serial cable",
		guard: all(serialPlugged,
			unless(serverNICsUp, "a server NIC is down; serial noise on top risks an unsurvivable double fault"))},
	{kind: experiment.FaultNICFlap, host: "serving", name: "nicflap-serving", suffix: " link",
		guard: all(unless(serialIntact, "serial already cut; NIC flapping would be an unsurvivable double fault"),
			servingFit, takeover, committed),
		// The link is unreliable for the whole window plus however long
		// the heartbeat view takes to settle afterwards.
		after: func(h *harness, f experiment.Fault) {
			h.extendLossWindow(f.Dur + hb.Timeout(h.tb.PrimaryNode.Config().HBPeriod))
		}},
	{kind: experiment.FaultSerialFlap, name: "serialflap", suffix: "serial cable",
		guard: all(serialPlugged,
			unless(serverNICsUp, "a server NIC is down; flapping serial too risks an unsurvivable double fault"),
			lossSettled)},
	{kind: experiment.FaultClockSkew, host: "standby", name: "clockskew-standby", guard: haveStandby},
}

// rowOf finds the row of f's kind and host, nil for a fault no plan of
// this package draws.
func rowOf(f experiment.Fault) *row {
	for i := range rows {
		if rows[i].kind == f.Kind && rows[i].host == f.Host {
			return &rows[i]
		}
	}
	return nil
}

// FaultNamed resolves a fault's command-line spelling, its name in
// reports (e.g. "crash-serving"), to the fault template: its kind and host
// or role, with no parameters.
func FaultNamed(name string) (experiment.Fault, error) {
	for _, r := range rows {
		if r.name == name {
			return experiment.Fault{Kind: r.kind, Host: r.host}, nil
		}
	}
	return experiment.Fault{}, fmt.Errorf("chaos: unknown fault %q", name)
}

// check is one guard: the reason a fault must be skipped, or "". t is the
// machine its host resolves to (nil for the cable, and for a standby that
// is not there — which haveStandby and liveStandby turn into a reason
// before any later check touches it).
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

func none(*harness, *cluster.Host) string      { return "" }
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

// fire is the plan's Judge.Fire: fault i falls due. Its row's guard vets
// it against the machine its host resolves to (Testbed.Resolve) — a
// rejoin's is the failed primary's, which it repairs — then it is armed
// on the testbed (which vets its parameters), traced before anything
// mutates so the trace shows cause before effect, and struck; what the
// row obliges the harness to remember is booked. A fault the guard
// refuses, or whose strike fails, is recorded as skipped.
func (h *harness) fire(_ int, f experiment.Fault) {
	desc, r := faultString(f), rowOf(f)
	if r == nil {
		h.skip(desc, "no chaos row for this fault")
		return
	}
	t := h.tb.Resolve(f.Host)
	if f.Kind == experiment.FaultRejoin {
		t = h.tb.PrimaryNode.Host()
	}
	if why := r.guard(h, t); why != "" {
		h.skip(desc, why)
		return
	}
	act, err := h.tb.Arm(f)
	if err == nil {
		target := r.suffix
		if t != nil {
			target = t.Name() + r.suffix
		}
		h.note(desc, target)
		err = act()
	}
	if err != nil {
		h.skip(desc, err.Error())
		return
	}
	h.injected[r.name]++
	if r.after != nil {
		r.after(h, f)
	}
}

// start is the plan's Judge.Start: client i falls due, and starts while
// the service is reachable.
func (h *harness) start(i int) {
	name := clientName(i)
	desc := fmt.Sprintf("@%v %s", h.p.Clients[i].At, name)
	if !h.healthy(h.tb.Serving().Host()) {
		h.skip(desc, "service is not reachable right now")
		return
	}
	cl, err := h.run.StartClient(i)
	if err != nil {
		h.skip(desc, err.Error())
		return
	}
	h.note(desc, cl.Name())
	h.injected[name]++
}
