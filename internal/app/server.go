package app

import (
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Server is the surface the harnesses (experiment, chaos, scenario) drive
// on a replicated application: the accept hook, the two application-crash
// injections, and the host CPU clock. Both DataServer and EchoServer
// satisfy it.
type Server interface {
	Accept(c *tcp.Conn)
	CrashSilent()
	CrashCleanup(abort bool)
	SetCPU(sm *sim.Simulator, cpu *sim.Clock)
}

// NewServer builds the echo server when echo is set and the data server
// otherwise, bound to the host's CPU clock so a starve injection slows the
// application without touching protocol timers (at rate 1 the binding is
// inert).
func NewServer(echo bool, name string, tracer *trace.Recorder, sm *sim.Simulator, cpu *sim.Clock) Server {
	var srv Server = NewDataServer(name, tracer)
	if echo {
		srv = NewEchoServer(name, tracer)
	}
	srv.SetCPU(sm, cpu)
	return srv
}
