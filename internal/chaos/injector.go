package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// Injector is one pluggable fault class. Implementations self-register
// in an init via Register, which is also what gives the kind its
// canonical name — the executor, the CLI parser, and Event.String all
// read the registry, so adding a fault class is one file with no switch
// to extend.
//
// The lifecycle of one fired event is Validate → Apply → (after ev.Dur)
// Revert, all at simulation time on the same *Env, so Apply can stash
// the resolved target (a link, a host) for Revert via Env.Stash — roles
// may have moved by the time the window closes, and the revert must hit
// what the apply hit.
type Injector interface {
	// Name is the kind's canonical spelling ("crash-serving",
	// "starve-serving", ...), used by the CLI, traces, and reports.
	Name() string
	// Validate vets the event against the harness's bookkeeping before
	// anything mutates; a non-empty return is the skip reason. Guards
	// exist to keep every generated schedule *survivable*: the
	// invariants demand that all clients finish, so no injector stacks
	// a second fatal fault onto a cluster that has not regained
	// redundancy. Guards are deterministic functions of the harness's
	// own bookkeeping, so a replayed seed skips exactly the same events.
	Validate(env *Env, ev Event) (skip string)
	// Apply injects the fault. It traces the injection itself (via
	// env.Note, before mutating, so the trace shows cause before
	// effect) and may record gray expectations. A returned error skips
	// the event, exactly like a Validate rejection.
	Apply(env *Env, ev Event) error
	// Revert undoes a windowed fault; the executor schedules it ev.Dur
	// after a successful Apply (when ev.Dur > 0). Self-expiring faults
	// embed baseInjector for the no-op.
	Revert(env *Env, ev Event)
}

// baseInjector provides the no-op halves for injectors that validate
// nothing or revert themselves.
type baseInjector struct{}

func (baseInjector) Validate(*Env, Event) string { return "" }
func (baseInjector) Revert(*Env, Event)          {}

var (
	injectors      = make(map[EventKind]Injector)
	eventKindNames = make(map[EventKind]string)
	maxEventKind   EventKind
)

// Register adds an injector to the registry under kind and binds the
// kind's name to Injector.Name. It panics on duplicates — two injectors
// claiming one kind is a programming error, caught at init.
func Register(kind EventKind, inj Injector) {
	if prev, dup := injectors[kind]; dup {
		panic(fmt.Sprintf("chaos: kind %d registered twice (%q and %q)",
			int(kind), prev.Name(), inj.Name()))
	}
	injectors[kind] = inj
	eventKindNames[kind] = inj.Name()
	if kind > maxEventKind {
		maxEventKind = kind
	}
}

// injectorFor resolves the registered injector for kind.
func injectorFor(kind EventKind) (Injector, bool) {
	inj, ok := injectors[kind]
	return inj, ok
}

// String names the kind, per the registry.
func (k EventKind) String() string {
	if n, ok := eventKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// ParseEventKind resolves a kind's command-line spelling (the String
// form, e.g. "crash-serving") — the compatibility shim over the injector
// registry. The scan walks the consecutive kind constants rather than
// ranging the registry map, so candidate order — and any error a caller
// renders from it — never depends on map iteration.
func ParseEventKind(s string) (EventKind, error) {
	for k := EventKind(0); k <= maxEventKind; k++ {
		if eventKindNames[k] == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown event kind %q", s)
}

// Env is the surface an Injector manipulates the run through: testbed
// access, role resolution, the harness's survivability bookkeeping, and
// one Stash slot carrying the applied target from Apply to Revert. One
// Env is created per fired event.
type Env struct {
	h *harness

	// stash carries injector-private state (the resolved link or host)
	// from Apply to the matching Revert.
	stash any
}

// Stash stores v for the matching Revert; Stashed retrieves it.
func (e *Env) Stash(v any)  { e.stash = v }
func (e *Env) Stashed() any { return e.stash }

// Sim is the run's simulator.
func (e *Env) Sim() *sim.Simulator { return e.h.tb.Sim }

// Testbed is the full experiment testbed (hosts, links, serial ports).
func (e *Env) Testbed() *experiment.Testbed { return e.h.tb }

// Schedule is the schedule being executed.
func (e *Env) Schedule() Schedule { return e.h.sc }

// Config is the primary's filled-in node config (detector bounds).
func (e *Env) Config() sttcp.Config { return e.h.cfg }

// Note traces the injection. Call before mutating anything, so the trace
// shows cause before effect.
func (e *Env) Note(ev Event, target string) { e.h.note(ev, target) }

// ServingNode is whichever node currently owns the client connections.
func (e *Env) ServingNode() *sttcp.Node { return e.h.servingNode() }

// StandbyNode is the active backup, or nil when fault tolerance is
// currently lost.
func (e *Env) StandbyNode() *sttcp.Node { return e.h.standbyNode() }

// LinkFor resolves a host's ethernet link.
func (e *Env) LinkFor(host *cluster.Host) *netem.Link { return e.h.tb.Link(host.Name()) }

// Healthy reports whether the host is fully up: not crashed, NIC alive,
// application alive.
func (e *Env) Healthy(host *cluster.Host) bool { return e.h.healthy(host) }

// Server is the application server running on host.
func (e *Env) Server(host *cluster.Host) app.Server { return e.h.tb.Server(host.Name()) }

// --- survivability bookkeeping (see the field docs on harness) ---

// SerialCut reports whether the null-modem cable is currently unplugged.
func (e *Env) SerialCut() bool { return e.h.serialCut }

// SetSerialCut records a serial plug/unplug.
func (e *Env) SetSerialCut(cut bool) { e.h.serialCut = cut }

// NICFailed reports the harness's record of an injected NIC failure.
func (e *Env) NICFailed(host *cluster.Host) bool { return e.h.nicFailed[host] }

// AppCrashed reports the harness's record of an injected app crash.
func (e *Env) AppCrashed(host *cluster.Host) bool { return e.h.appCrashed[host] }

// LossWindowActive reports whether a loss (or corruption) window is
// still open on a server link.
func (e *Env) LossWindowActive() bool { return e.h.tb.Sim.Elapsed() < e.h.lossUntil }

// ExtendLossWindow records that a server link is unreliable for d from
// now; serial cuts are deferred past it.
func (e *Env) ExtendLossWindow(d time.Duration) {
	if until := e.h.tb.Sim.Elapsed() + d; until > e.h.lossUntil {
		e.h.lossUntil = until
	}
}

// StandbyAtRisk reports whether the standby's inbound link was recently
// unreliable — the §4.3 output-commit window during which the serving
// machine must not be killed.
func (e *Env) StandbyAtRisk() bool { return e.h.standbyAtRisk() }

// NoteStandbyRisk records that the standby's inbound link is unreliable
// for d, plus a grace period for any in-flight missed-byte recovery.
func (e *Env) NoteStandbyRisk(d time.Duration) { e.h.noteStandbyRisk(d) }

// ClientsSurviveServingLoss reports whether killing the serving machine
// is survivable for every unfinished client (pre-rejoin connections are
// local-only on the survivor).
func (e *Env) ClientsSurviveServingLoss() bool { return e.h.clientsSurviveServingLoss() }

// --- gray expectations and evidence (judged by endInvariants) ---

// ExpectTakeoverBy records that the fault just applied must be detected:
// a takeover must happen, and its span must start at or before deadline
// (run-relative). Judged by the gray-detection-bound invariant.
func (e *Env) ExpectTakeoverBy(deadline time.Duration, what string) {
	e.h.grayExpects = append(e.h.grayExpects, grayExpect{deadline: deadline, what: what})
}

// NoteGrayNoise marks the applied fault as noise-class: pure degradation
// the detectors must ride out. A run whose gray faults are all noise
// (and that flaps nothing) must end with zero suspects — the
// gray-quiescence invariant.
func (e *Env) NoteGrayNoise() { e.h.grayNoise++ }

// NoteFlap marks that a flap was applied: the flap-containment invariant
// tolerates at most one takeover (a flap can legitimately trip a crisp
// detector once; STONITH prevents oscillation) and quiescence steps
// aside.
func (e *Env) NoteFlap() { e.h.flapApplied = true }

// ExpectEvidence records an end-of-run predicate proving the fault
// actually bit (corruption counters advanced, the drift note fired).
// Judged by the gray-evidence invariant; desc names the expectation in
// the violation.
func (e *Env) ExpectEvidence(desc string, ok func() bool) {
	e.h.grayEvidence = append(e.h.grayEvidence, grayEvidence{desc: desc, ok: ok})
}

// DriftNoted scans the trace for the heartbeat-cadence drift note — the
// clock-skew evidence emitted by the sttcp drift estimator.
func (e *Env) DriftNoted() bool {
	for _, ev := range e.h.tb.Tracer.Filter(trace.KindGeneric) {
		if strings.Contains(ev.Message, "clock-rate skew suspected") {
			return true
		}
	}
	return false
}
