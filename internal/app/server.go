package app

import (
	"time"

	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Server is the surface the harnesses (experiment, chaos, scenario) drive
// on a replicated application: the accept hook, the two application-crash
// injections and whether one struck, and the host CPU clock. Both DataServer
// and EchoServer satisfy it.
type Server interface {
	Accept(c *tcp.Conn)
	CrashSilent()
	CrashCleanup(abort bool)
	Crashed() bool
	SetCPU(cpu *sim.Clock)
}

// NewServer builds the echo server when echo is set and the data server
// otherwise, bound to the host's CPU clock so a starve injection slows the
// application without touching protocol timers (at rate 1 the binding is
// inert) and a crash stops it.
func NewServer(echo bool, name string, tracer *trace.Recorder, cpu *sim.Clock) Server {
	var srv Server = NewDataServer(name, tracer)
	if echo {
		srv = NewEchoServer(name, tracer)
	}
	srv.SetCPU(cpu)
	return srv
}

// procQuantum is the nominal processing time one pump invocation stands
// for. At CPU rate r a pump is deferred by (r-1)×procQuantum; at rate 1
// it runs inline with zero deferral.
const procQuantum = time.Millisecond

// replica is what DataServer and EchoServer share: the crash flag and its
// two injections (Demo 4), the connections a crash with cleanup closes,
// and the host CPU clock that models scheduler starvation. S is the server's per-connection state.
type replica[S any] struct {
	name   string
	tracer *trace.Recorder
	// what and silentHow word the crash notes ("application crashed (no
	// cleanup, no FIN)").
	what, silentHow string

	crashed bool
	conns   map[*tcp.Conn]*S

	// cpu models scheduler starvation on the host (SetCPU): at rates
	// above 1 each processing quantum is deferred by the stretch, on the
	// clock, so responses slow down while the host's timers — and
	// heartbeats — stay on schedule. Nil or rate 1 keeps the pump fully
	// inline.
	cpu *sim.Clock
}

func newReplica[S any](name string, tracer *trace.Recorder, what, silentHow string) replica[S] {
	return replica[S]{name: name, tracer: tracer, what: what, silentHow: silentHow, conns: make(map[*tcp.Conn]*S)}
}

// adopt records an accepted connection until it closes.
func (r *replica[S]) adopt(c *tcp.Conn, st *S) {
	r.conns[c] = st
	c.OnClose = func(error) { delete(r.conns, c) }
}

// SetCPU attaches the host's CPU clock so injected starvation stretches
// this server's processing time. Call before traffic starts.
func (r *replica[S]) SetCPU(cpu *sim.Clock) { r.cpu = cpu }

// inline reports whether a pump runs at once, at nominal CPU rate; if not,
// the caller hands it to starve. A caller asks first, so that the pump's
// func value is built only when it is deferred.
func (r *replica[S]) inline() bool { return r.cpu.Rate() == 1 }

// starve defers pump by the starvation stretch. Deferred pumps coalesce per
// connection through *deferred: however many readable/writable wakeups
// arrive during the wait, the starved process gets one quantum at the end
// of it.
func (r *replica[S]) starve(deferred *bool, pump func()) {
	if *deferred {
		return
	}
	*deferred = true
	r.cpu.AfterFunc(r.cpu.Stretch(procQuantum)-procQuantum, func() {
		*deferred = false
		pump()
	})
}

// CrashSilent simulates an application crash without cleanup (§4.2.1): the
// process stops reading and writing but the OS keeps the socket open, so no
// FIN is generated.
func (r *replica[S]) CrashSilent() {
	r.crashed = true
	r.tracer.Emit(trace.KindAppCrash, r.name, "%s crashed (%s)", r.what, r.silentHow)
}

// CrashCleanup simulates an application crash with OS cleanup (§4.2.2):
// every socket is closed, generating a FIN (or a RST when abort is true).
func (r *replica[S]) CrashCleanup(abort bool) {
	r.crashed = true
	r.tracer.Emit(trace.KindAppCrash, r.name, "%s crashed (cleanup, abort=%v)", r.what, abort)
	for c := range r.conns {
		if abort {
			c.Abort()
		} else {
			_ = c.Close()
		}
	}
}

// Crashed reports whether a crash was injected.
func (r *replica[S]) Crashed() bool { return r.crashed }
