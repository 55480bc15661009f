package sttcp

import (
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Watchdog implements the application-level health mechanism §4.2.2
// proposes for the failures the TCP layer cannot see: "an application can
// support a watchdog mechanism where the application continually sends a
// heartbeat to a watchdog. The watchdog monitors the application health and
// informs ST-TCP in case of any failure suspicion."
//
// The TCP-layer lag detectors only notice a dead application when the
// socket should have been moving — an idle connection hides the failure
// until the next request. A watchdog closes that gap: the healthy
// application beats it on a timer (a purely local timer does not affect
// replica determinism, which constrains only the socket I/O), and a missed
// beat makes the node flag itself failed in its very next heartbeat, so
// the peer can act immediately.
type Watchdog struct {
	sim     *sim.Simulator
	name    string
	tracer  *trace.Recorder
	timeout time.Duration

	// OnSuspect fires once when the application misses its deadline;
	// wire it to (*Node).ReportLocalAppFailure.
	OnSuspect func()

	timer   *sim.Event
	expired bool
	beats   int64
}

// NewWatchdog creates a watchdog that suspects the application if Beat is
// not called for timeout. Monitoring starts at the first Beat.
func NewWatchdog(s *sim.Simulator, name string, timeout time.Duration, tracer *trace.Recorder) *Watchdog {
	if timeout <= 0 {
		timeout = time.Second
	}
	return &Watchdog{sim: s, name: name, tracer: tracer, timeout: timeout}
}

// Beat reports the application alive and re-arms the deadline.
func (w *Watchdog) Beat() {
	if w.expired {
		return
	}
	w.beats++
	w.sim.Cancel(w.timer)
	w.timer = w.sim.Schedule(w.timeout, w.expire)
}

// Beats reports how many beats have been received.
func (w *Watchdog) Beats() int64 { return w.beats }

// Expired reports whether the watchdog has fired.
func (w *Watchdog) Expired() bool { return w.expired }

// Stop disarms the watchdog (clean application shutdown).
func (w *Watchdog) Stop() {
	w.sim.Cancel(w.timer)
	w.timer = nil
}

func (w *Watchdog) expire() {
	if w.expired {
		return
	}
	w.expired = true
	w.timer = nil
	w.tracer.Emit(trace.KindSuspect, w.name, "watchdog: application missed its %v deadline", w.timeout)
	if w.OnSuspect != nil {
		w.OnSuspect()
	}
}
