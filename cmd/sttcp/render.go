package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/sttcp"
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
	if tracer == nil {
		return
	}
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

// printResult renders whichever result shape the demo produced. Only
// Table 1 can fail here: a row whose client was disturbed.
func (v view) printResult(w io.Writer, d experiment.Demo, res experiment.Result) error {
	fmt.Fprintf(w, "\n=== %s: %s ===\n\n", d.Name, d.Title)
	// The trace views follow the summary, except where the shape is a list
	// of runs and each row is followed by its own.
	tracer, anatomy := res.Tracer, (*trace.FailoverAnatomy)(nil)
	switch {
	case res.Baseline != nil:
		printFailoverVsBaseline(w, res)
		anatomy = res.Failovers[0].Anatomy
	case res.Overhead != nil:
		o := res.Overhead
		fmt.Fprintf(w, "workload: %d MiB failure-free download over 100 Mbit/s\n\n", o.Size>>20)
		fmt.Fprintf(w, "%-20s %v\n", "ST-TCP enabled:", o.WithSTTCP.Round(time.Millisecond))
		fmt.Fprintf(w, "%-20s %v\n", "ST-TCP disabled:", o.WithoutTCP.Round(time.Millisecond))
		fmt.Fprintf(w, "%-20s %.3f%%\n", "overhead:", o.OverheadPct)
	case res.Scale != nil:
		s := res.Scale
		fmt.Fprintf(w, "%d connections × %d KiB each; primary crash=%v\n\n", s.Conns, s.BytesPerClient>>10, s.Crashed)
		fmt.Fprintf(w, "%-22s %v\n", "backup took over:", s.TookOver)
		fmt.Fprintf(w, "%-22s %d (pattern-verify failures: %d)\n", "clients completed:", s.ClientsDone, s.VerifyFailures)
		fmt.Fprintf(w, "%-22s %d MiB in %v virtual\n", "payload:", s.TotalBytes>>20, s.VirtualElapsed.Round(time.Millisecond))
		fmt.Fprintf(w, "%-22s %v\n", "detection:", s.DetectionTime.Round(time.Millisecond))
		fmt.Fprintf(w, "%-22s %v\n", "max client stall:", s.MaxStall.Round(time.Millisecond))
		fmt.Fprintf(w, "%-22s %d\n", "segments emitted:", s.SegmentsEmitted)
		anatomy = s.Anatomy
	case len(res.Capacity) > 0:
		printCapacity(w, res.Capacity, true)
		fmt.Fprintln(w, "\n   same load over a crossover 100 Mbit/s Ethernet heartbeat link (§3's advice):")
		printCapacity(w, res.EthernetCapacity, false)
	case res.Distribution != nil:
		fmt.Fprintf(w, "crash-phase sweep at hb=%v\n", res.Distribution.HBPeriod)
		fmt.Fprintf(w, "%-12s %v\n", "detection:", res.Distribution.Detection)
		fmt.Fprintf(w, "%-12s %v\n", "failover:", res.Distribution.Failover)
	case len(res.OutputCommit) > 0:
		printOutputCommit(w, res.OutputCommit)
	case len(res.Witness) > 0:
		for _, r := range res.Witness {
			arb := "pairwise (no witness)"
			if r.WithWitness {
				arb = "witness majority"
			}
			fmt.Fprintf(w, "%-24s resolved the partition in %v\n", arb, r.Resolution.Round(time.Millisecond))
		}
	case len(res.NICLoad) > 0:
		printNICLoad(w, res.NICLoad)
	case len(res.NIC) > 0:
		tracer = nil
		for _, r := range res.NIC {
			where, action := "backup", "primary entered non-fault-tolerant mode"
			if r.FailedAtPrimary {
				where, action = "primary", "backup took over the connection"
			}
			fmt.Fprintf(w, "NIC failure at the %s: detected in %v; %s; client unaffected: %v\n",
				where, r.DetectionTime.Round(time.Millisecond), action, r.ClientOK)
			v.traces(w, r.Tracer, nil)
		}
	case len(res.Table1) > 0:
		return v.printTable1(w, res.Table1)
	default:
		tracer = nil
		fmt.Fprintf(w, "%-14s %-14s %-12s %-12s %s\n", "scenario", "HB period", "detection", "failover", "completed")
		for _, r := range res.Failovers {
			scen := r.Scenario
			if scen == "" {
				scen = "-"
			}
			fmt.Fprintf(w, "%-14s %-14v %-12v %-12v %v\n", scen, r.HBPeriod,
				r.DetectionTime.Round(time.Millisecond), r.FailoverTime.Round(time.Millisecond), r.Completed)
			v.traces(w, r.Tracer, r.Anatomy)
		}
	}
	v.traces(w, tracer, anatomy)
	return nil
}

func printFailoverVsBaseline(w io.Writer, res experiment.Result) {
	st, bl := res.Failovers[0], *res.Baseline
	fmt.Fprintf(w, "workload: %d MiB download; primary HW crash mid-transfer\n\n", st.TotalBytes>>20)
	fmt.Fprintf(w, "%-28s %-14s %-14s %-12s %s\n", "", "transfer time", "client stall", "reconnects", "completed")
	fmt.Fprintf(w, "%-28s %-14v %-14v %-12d %v\n", "ST-TCP",
		st.TransferTime.Round(time.Millisecond), st.FailoverTime.Round(time.Millisecond), st.Reconnects, st.Completed)
	fmt.Fprintf(w, "%-28s %-14v %-14v %-12d %v\n", "plain TCP + hot backup",
		bl.TransferTime.Round(time.Millisecond), bl.FailoverTime.Round(time.Millisecond), bl.Reconnects, bl.Completed)
	fmt.Fprintf(w, "\nST-TCP detection time: %v; the client saw only a %v glitch and never reconnected.\n",
		st.DetectionTime.Round(time.Millisecond), st.FailoverTime.Round(time.Millisecond))

	// The demo GUI's pie chart, flattened into a timeline (one glyph per
	// 100 ms). The ST-TCP chart pauses briefly and keeps filling; the
	// baseline chart flatlines until the client's own stall detector
	// reconnects it.
	end := st.StartAt.Add(6 * time.Second)
	fmt.Fprintln(w, "\npie-chart progression (one glyph per 100ms):")
	fmt.Fprintf(w, "ST-TCP:    %s\n", experiment.FormatTimeline(
		experiment.ProgressTimeline(st.Progress, st.TotalBytes, st.StartAt, end, 100*time.Millisecond)))
	fmt.Fprintf(w, "baseline:  %s\n", experiment.FormatTimeline(
		experiment.ProgressTimeline(bl.Progress, bl.TotalBytes, bl.StartAt, bl.StartAt.Add(6*time.Second), 100*time.Millisecond)))
}

// printTable1 renders the paper's Table 1: per scenario the detection
// latency, the recovery action taken, and whether the client's workload
// survived untouched.
func (v view) printTable1(w io.Writer, rows []experiment.ScenarioResult) error {
	// The action column is as wide as its longest entry, so 'client ok'
	// lines up on every row.
	actions, width := make([]string, len(rows)), len("recovery action")
	for i, r := range rows {
		switch {
		case r.BackupState == sttcp.StateTakenOver:
			actions[i] = "backup took over; primary powered down"
		case r.PrimaryState == sttcp.StateNonFT:
			actions[i] = "primary in non-FT mode; backup shut down"
		case r.RecoveryEvents > 0:
			actions[i] = fmt.Sprintf("missed bytes recovered (%d events); no failover", r.RecoveryEvents)
		default:
			actions[i] = "absorbed by normal TCP retransmission; no failover"
		}
		width = max(width, len(actions[i]))
	}
	fmt.Fprintf(w, "%-32s %-12s %-*s %s\n", "scenario", "detection", width, "recovery action", "client ok")
	failures := 0
	for i, r := range rows {
		det := "-"
		if r.DetectionTime > 0 {
			det = r.DetectionTime.Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%-32s %-12s %-*s %v\n", r.Scenario, det, width, actions[i], r.ClientOK)
		if !r.ClientOK {
			failures++
		}
		v.traces(w, r.Tracer, nil)
	}
	fmt.Fprintln(w)
	if failures > 0 {
		return fmt.Errorf("%d scenario(s) disturbed the client", failures)
	}
	fmt.Fprintln(w, "All ten scenarios masked from the client.")
	return nil
}

// printCapacity renders a heartbeat-link capacity series; the Ethernet
// variant of the sweep leaves the message-size column out.
func printCapacity(w io.Writer, rows []experiment.SerialCapacityResult, withBytes bool) {
	bytes := func(v any) string {
		if !withBytes {
			return ""
		}
		return fmt.Sprintf("%-10v ", v)
	}
	fmt.Fprintf(w, "%-8s %s%-14s %-14s %s\n", "conns", bytes("hb bytes"), "mean interval", "max backlog", "saturated")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %s%-14v %-14v %v\n", r.Conns, bytes(r.MessageBytes),
			r.MeanInterval.Round(time.Millisecond), r.MaxQueueDelay.Round(time.Millisecond), r.Saturated)
	}
}

func printOutputCommit(w io.Writer, rows []experiment.OutputCommitResult) {
	for _, r := range rows {
		name := "without logger"
		if r.WithLogger {
			name = "with logger"
		}
		outcome := fmt.Sprintf("wedged after %d/%d rounds (unrecoverable)", r.RoundsDone, r.Rounds)
		if r.ClientDone {
			outcome = fmt.Sprintf("all %d rounds completed (%d recovery datagrams)", r.RoundsDone, r.LoggerServed)
		}
		fmt.Fprintf(w, "%-28s %s\n", name, outcome)
	}
}

func printNICLoad(w io.Writer, rows []experiment.NICLoadResult) {
	enhanced, old := rows[0].BackupRxBytes, rows[1].BackupRxBytes
	fmt.Fprintf(w, "%-28s %8d KB received at backup NIC\n", "enhanced (HB state)", enhanced>>10)
	fmt.Fprintf(w, "%-28s %8d KB received at backup NIC (%.1fx)\n", "old (tap both directions)", old>>10, float64(old)/float64(enhanced))
}
