package chaos

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sttcp"
)

// The legacy (crisp Table 1) injectors. Each is a stateless singleton;
// per-event state travels in the Env stash.

func init() {
	Register(EvClientStart, clientInjector{name: "client-start"})
	Register(EvSecondClient, clientInjector{name: "second-client"})
	Register(EvCrashServing, crashServingInjector{})
	Register(EvCrashStandby, crashStandbyInjector{})
	Register(EvAppCrashServing, appCrashInjector{serving: true, name: "appcrash-serving"})
	Register(EvAppCrashStandby, appCrashInjector{serving: false, name: "appcrash-standby"})
	Register(EvNICFailServing, nicFailInjector{serving: true, name: "nicfail-serving"})
	Register(EvNICFailStandby, nicFailInjector{serving: false, name: "nicfail-standby"})
	Register(EvSerialCut, serialCutInjector{})
	Register(EvDropServing, dropInjector{name: "drop-serving"})
	Register(EvDropStandby, dropInjector{name: "drop-standby", standby: true})
	Register(EvDropClient, dropInjector{name: "drop-client"})
	Register(EvLossServing, lossInjector{name: "loss-serving", server: true})
	Register(EvLossStandby, lossInjector{name: "loss-standby", server: true, standby: true})
	Register(EvLossClient, lossInjector{name: "loss-client"})
	Register(EvDelayServing, delayInjector{name: "delay-serving"})
	Register(EvDelayStandby, delayInjector{name: "delay-standby"})
	Register(EvDelayClient, delayInjector{name: "delay-client"})
	Register(EvRejoin, rejoinInjector{})
}

// --- workload ---

type clientInjector struct {
	baseInjector
	name string
}

func (i clientInjector) Name() string { return i.name }

func (i clientInjector) Validate(env *Env, ev Event) string {
	host := env.ServingNode().Host()
	if host.Crashed() || env.AppCrashed(host) || env.NICFailed(host) {
		return "service is not reachable right now"
	}
	return ""
}

func (i clientInjector) Apply(env *Env, ev Event) error {
	return env.h.startClient(ev)
}

// --- machine crashes ---

type crashServingInjector struct{ baseInjector }

func (crashServingInjector) Name() string { return "crash-serving" }

func (crashServingInjector) Validate(env *Env, ev Event) string {
	if env.ServingNode().Host().Crashed() {
		return "serving host already down"
	}
	sb := env.StandbyNode()
	if sb == nil || !env.Healthy(sb.Host()) {
		return "no healthy standby to take over"
	}
	if !env.ClientsSurviveServingLoss() {
		return "unfinished pre-rejoin connection is local-only on the serving host"
	}
	if env.StandbyAtRisk() {
		return "standby link was recently lossy; ACKed-byte recovery may be in flight (§4.3 output-commit window)"
	}
	return ""
}

func (crashServingInjector) Apply(env *Env, ev Event) error {
	n := env.ServingNode()
	env.Note(ev, n.Host().Name())
	n.Host().CrashHW()
	return nil
}

type crashStandbyInjector struct{ baseInjector }

func (crashStandbyInjector) Name() string { return "crash-standby" }

func (crashStandbyInjector) Validate(env *Env, ev Event) string {
	if env.StandbyNode() == nil {
		return "no active standby"
	}
	if serving := env.ServingNode(); !env.Healthy(serving.Host()) {
		return "serving side unhealthy; killing the standby would lose service"
	}
	return ""
}

func (crashStandbyInjector) Apply(env *Env, ev Event) error {
	sb := env.StandbyNode()
	env.Note(ev, sb.Host().Name())
	sb.Host().CrashHW()
	return nil
}

// --- application crashes ---

type appCrashInjector struct {
	baseInjector
	serving bool
	name    string
}

func (i appCrashInjector) Name() string { return i.name }

func (i appCrashInjector) Validate(env *Env, ev Event) string {
	if i.serving {
		host := env.ServingNode().Host()
		if host.Crashed() || env.AppCrashed(host) {
			return "serving application already gone"
		}
		sb := env.StandbyNode()
		if sb == nil || !env.Healthy(sb.Host()) {
			return "no healthy standby to take over"
		}
		if !env.ClientsSurviveServingLoss() {
			return "unfinished pre-rejoin connection is local-only on the serving host"
		}
		return ""
	}
	sb := env.StandbyNode()
	if sb == nil {
		return "no active standby"
	}
	if env.AppCrashed(sb.Host()) {
		return "standby application already crashed"
	}
	if serving := env.ServingNode(); !env.Healthy(serving.Host()) {
		return "serving side unhealthy"
	}
	return ""
}

func (i appCrashInjector) Apply(env *Env, ev Event) error {
	var host = env.ServingNode().Host()
	if !i.serving {
		host = env.StandbyNode().Host()
	}
	env.Note(ev, host.Name())
	env.h.appCrashed[host] = true
	if ev.Cleanup {
		env.Server(host).CrashCleanup(false)
	} else {
		env.Server(host).CrashSilent()
	}
	return nil
}

// --- NIC failures ---

type nicFailInjector struct {
	baseInjector
	serving bool
	name    string
}

func (i nicFailInjector) Name() string { return i.name }

func (i nicFailInjector) Validate(env *Env, ev Event) string {
	if env.SerialCut() {
		// With the serial line gone a NIC failure is indistinguishable
		// from a full crash from BOTH sides: whichever server detects
		// total silence first STONITHs the other, and if the healthy
		// one loses that race the service dies. The real testbed has
		// the same exposure; the harness only injects survivable
		// combinations.
		return "serial already cut; NIC failure would be an unsurvivable double fault"
	}
	var n *sttcp.Node
	if i.serving {
		n = env.ServingNode()
		sb := env.StandbyNode()
		if sb == nil || !env.Healthy(sb.Host()) {
			return "no healthy standby to take over"
		}
		if !env.ClientsSurviveServingLoss() {
			return "unfinished pre-rejoin connection is local-only on the serving host"
		}
		if env.StandbyAtRisk() {
			return "standby link was recently lossy; ACKed-byte recovery may be in flight (§4.3 output-commit window)"
		}
	} else {
		n = env.StandbyNode()
		if n == nil {
			return "no active standby"
		}
		if serving := env.ServingNode(); !env.Healthy(serving.Host()) {
			return "serving side unhealthy"
		}
	}
	if n.Host().Crashed() || env.NICFailed(n.Host()) {
		return "target NIC already dead"
	}
	return ""
}

func (i nicFailInjector) Apply(env *Env, ev Event) error {
	n := env.ServingNode()
	if !i.serving {
		n = env.StandbyNode()
	}
	host := n.Host()
	env.Note(ev, host.Name())
	env.h.nicFailed[host] = true
	host.FailNIC()
	return nil
}

// --- serial cut ---

type serialCutInjector struct{ baseInjector }

func (serialCutInjector) Name() string { return "serial-cut" }

func (serialCutInjector) Validate(env *Env, ev Event) string {
	if env.SerialCut() {
		return "serial already cut"
	}
	if env.NICFailed(env.Testbed().Primary) || env.NICFailed(env.Testbed().Backup) {
		return "a server NIC is down; cutting serial too would be an unsurvivable double fault"
	}
	if env.LossWindowActive() {
		// A loss burst can silence enough IP heartbeats that, with
		// serial also gone, a healthy peer gets STONITHed.
		return "loss window active on a server link"
	}
	return ""
}

func (serialCutInjector) Apply(env *Env, ev Event) error {
	env.Note(ev, "serial cable")
	env.SetSerialCut(true)
	env.Testbed().SerialPrimary.SetDown(true)
	env.Testbed().SerialBackup.SetDown(true)
	return nil
}

// --- link windows (drop / loss / delay) ---

// linkTarget resolves a drop/loss/delay event to its ethernet link.
func (h *harness) linkTarget(ev Event) (*netem.Link, string, bool) {
	switch ev.Kind {
	case EvDropClient, EvLossClient, EvDelayClient:
		return h.tb.Link("client"), "client link", true
	case EvDropServing, EvLossServing, EvDelayServing:
		n := h.servingNode()
		if n.Host().Crashed() {
			return nil, "", false
		}
		return h.tb.Link(n.Host().Name()), n.Host().Name() + " link", true
	default:
		n := h.standbyNode()
		if n == nil {
			return nil, "", false
		}
		return h.tb.Link(n.Host().Name()), n.Host().Name() + " link", true
	}
}

type dropInjector struct {
	baseInjector
	name    string
	standby bool
}

func (i dropInjector) Name() string { return i.name }

func (i dropInjector) Validate(env *Env, ev Event) string {
	if _, _, ok := env.h.linkTarget(ev); !ok {
		return "no live target link"
	}
	return ""
}

func (i dropInjector) Apply(env *Env, ev Event) error {
	link, name, ok := env.h.linkTarget(ev)
	if !ok {
		return fmt.Errorf("no live target link")
	}
	env.Note(ev, name)
	if i.standby {
		env.NoteStandbyRisk(ev.Dur)
	}
	link.DropFromBFor(ev.Dur) // B side = switch port: drop inbound; self-expiring
	return nil
}

type lossInjector struct {
	name    string
	server  bool
	standby bool
}

func (i lossInjector) Name() string { return i.name }

func (i lossInjector) Validate(env *Env, ev Event) string {
	if _, _, ok := env.h.linkTarget(ev); !ok {
		return "no live target link"
	}
	if i.server && env.SerialCut() {
		return "serial is cut; heartbeat loss could STONITH a healthy peer"
	}
	return ""
}

func (i lossInjector) Apply(env *Env, ev Event) error {
	link, name, ok := env.h.linkTarget(ev)
	if !ok {
		return fmt.Errorf("no live target link")
	}
	env.Note(ev, name)
	link.SetLossRate(ev.Rate)
	if i.server {
		env.ExtendLossWindow(ev.Dur)
	}
	if i.standby {
		env.NoteStandbyRisk(ev.Dur)
	}
	env.Stash(link)
	return nil
}

func (i lossInjector) Revert(env *Env, ev Event) {
	if link, ok := env.Stashed().(*netem.Link); ok {
		link.SetLossRate(0)
	}
}

type delayInjector struct {
	name string
}

func (i delayInjector) Name() string { return i.name }

func (i delayInjector) Validate(env *Env, ev Event) string {
	if _, _, ok := env.h.linkTarget(ev); !ok {
		return "no live target link"
	}
	return ""
}

func (i delayInjector) Apply(env *Env, ev Event) error {
	link, name, ok := env.h.linkTarget(ev)
	if !ok {
		return fmt.Errorf("no live target link")
	}
	env.Note(ev, name)
	link.SetExtraDelay(ev.Delay)
	env.Stash(link)
	return nil
}

func (i delayInjector) Revert(env *Env, ev Event) {
	if link, ok := env.Stashed().(*netem.Link); ok {
		link.SetExtraDelay(0)
	}
}

// --- repair loop ---

type rejoinInjector struct{ baseInjector }

func (rejoinInjector) Name() string { return "rejoin" }

func (rejoinInjector) Validate(env *Env, ev Event) string {
	if survivor := env.h.lc.BackupNode(); survivor.State() != sttcp.StateTakenOver {
		return fmt.Sprintf("survivor is %v, not taken-over", survivor.State())
	}
	return ""
}

func (rejoinInjector) Apply(env *Env, ev Event) error {
	h := env.h
	dead := h.lc.PrimaryHost()
	if err := h.lc.Reintegrate(h.tb.NewReplica); err != nil {
		return fmt.Errorf("reintegrate: %v", err)
	}
	env.Note(ev, dead.Name())
	// The repair also replaces any cut serial cable (Reboot resets
	// only the dead side's port).
	if h.serialCut {
		h.tb.SerialPrimary.SetDown(false)
		h.tb.SerialBackup.SetDown(false)
		h.serialCut = false
	}
	h.nicFailed[dead] = false
	h.appCrashed[dead] = false
	h.haveRejoined = true
	h.lastRejoin = h.tb.Sim.Now()
	h.hookNode(h.lc.BackupNode())
	return nil
}
