package experiment

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// WitnessResult is one arm of the "witness" registry demo: how long a
// primary-side FIN conflict took to resolve, with or without the witness
// replica's majority vote.
type WitnessResult struct {
	WithWitness bool
	Resolution  time.Duration
	Tracer      *trace.Recorder
}

// runWitnessConflict measures how long a primary-side FIN conflict (the
// primary's application crashes with cleanup mid-echo; Table 1 row 3P)
// takes to resolve, with or without the witness replica's majority vote
// (§4.2.2): Resolution is the time from injection to the takeover. Reached
// through the "witness" registry demo.
func runWitnessConflict(seed int64, withWitness bool) (WitnessResult, error) {
	out := WitnessResult{WithWitness: withWitness}
	tb := Build(Options{Seed: seed, WithWitness: withWitness})
	err := tb.StartSTTCP(0, func(c *sttcp.Config) {
		c.MaxDelayFIN = 15 * time.Second
	})
	if err != nil {
		return out, err
	}
	pSrv, _ := tb.attachServers(true)
	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 1500, 1024, tb.Tracer)
	cl.Gap = 5 * time.Millisecond
	if err := cl.Start(); err != nil {
		return out, err
	}
	injectAt := tb.Sim.Now().Add(2 * time.Second)
	tb.Sim.At(injectAt, func() { pSrv.CrashCleanup(false) })
	if err := tb.Run(5 * time.Minute); err != nil {
		return out, err
	}
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		return out, fmt.Errorf("experiment: witness conflict client failed: %v", cl.Err)
	}
	e, ok := tb.Tracer.First(trace.KindTakeover)
	if !ok {
		return out, fmt.Errorf("experiment: witness conflict: no takeover")
	}
	out.Resolution, out.Tracer = e.Time.Sub(injectAt), tb.Tracer
	return out, nil
}
