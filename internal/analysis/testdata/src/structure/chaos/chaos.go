// Package chaos is a corpus stand-in for a runner outside the harness: it
// may declare a plan, never build, start, break or judge a testbed itself.
package chaos

import (
	"example.com/vet/structure/internal/app"
	"example.com/vet/structure/internal/cluster"
	"example.com/vet/structure/internal/experiment"
	"example.com/vet/structure/internal/netem"
	"example.com/vet/structure/internal/serial"
)

type crasher interface{ CrashHW() }

type run struct{ tb *experiment.Testbed }

func (r run) completed() bool { return r.tb != nil } // want `one-judge: a completed method is back`

func draw(h *cluster.Host, l *netem.Link, p *serial.Port, srv app.Server, ds *app.DataServer, c crasher) {
	b := experiment.Build // want `one-run: experiment\.Build used here`
	tb := b(experiment.Options{Seed: 1})
	_ = experiment.Plan{Opts: experiment.Options{Seed: 1}} // declaring a plan is the way
	_ = tb
	h.CrashHW()            // want `faults-one-place: fault cluster\.Host\.CrashHW performed outside experiment\.Testbed`
	scale := h.SetCPUScale // want `faults-one-place: fault cluster\.Host\.SetCPUScale`
	scale(2)
	l.SetCorruptRate(0.1)      // want `faults-one-place: fault netem\.Link\.SetCorruptRate`
	srv.CrashSilent()          // want `faults-one-place: fault app\.Server\.CrashSilent`
	ds.CrashCleanup(false)     // want `faults-one-place: fault app\.replica\[S\]\.CrashCleanup`
	c.CrashHW()                // want `faults-one-place: fault chaos\.crasher\.CrashHW`
	p.SetDown(true)            // want `faults-one-place: fault serial\.Port\.SetDown`
	p.SetDown(false)           // raising the cable breaks nothing
	_ = l.Transmit(nil)        // not a fault
	_ = experiment.Violation{} // want `one-judge: an experiment\.Violation built outside the registry`
	//sttcp:allow structure its allowed places are the only exemptions // want `sttcp:allow names unknown analyzer structure`
	h.FailNIC() // want `faults-one-place: fault cluster\.Host\.FailNIC`
}
