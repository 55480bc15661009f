package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// view is which per-run trace renderings the user asked for (demo, lab).
type view struct {
	trace, timeline bool
}

func registerView(fs *flag.FlagSet) *view {
	v := &view{}
	fs.BoolVar(&v.trace, "trace", false, "dump each run's event trace")
	fs.BoolVar(&v.timeline, "timeline", false, "render each run's causal span timeline, with the failover's phase anatomy where there is one")
	return v
}

// traces renders the requested views of one run's recorder. A non-nil
// anatomy zooms the timeline to the window around that failover.
func (v view) traces(w io.Writer, tracer *trace.Recorder, a *trace.FailoverAnatomy) {
	if v.trace {
		fmt.Fprintln(w, tracer.Dump())
	}
	if !v.timeline {
		return
	}
	o := trace.TimelineOptions{Width: 100, Epoch: sim.Epoch}
	if a != nil {
		fmt.Fprintln(w)
		fmt.Fprintln(w, a.String())
		o.Start = a.FaultAt.Add(-150 * time.Millisecond)
		end := a.ResumeTxAt
		if a.StallEnd.After(end) {
			end = a.StallEnd
		}
		o.End = end.Add(250 * time.Millisecond)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, tracer.RenderSpanTimeline(o))
}
