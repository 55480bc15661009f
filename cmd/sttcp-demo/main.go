// Command sttcp-demo runs the demonstrations of the paper "A System
// Demonstration of ST-TCP" (DSN 2005) on the simulated testbed and prints
// what the conference audience would have seen: the client's progress
// across a failover, the measured failover and detection times, and the
// server-side event trace.
//
// Demos are discovered through the experiment registry; -demo accepts any
// registered name (demo1..demo5, demo2-upload) or 'all'.
//
// Usage:
//
//	sttcp-demo -demo demo1 [-seed 42] [-trace]
//	sttcp-demo -demo all [-metrics-out metrics.json]
//	sttcp-demo -demo demo2 -timeline                # failover anatomy + ASCII timeline
//	sttcp-demo -demo demo1 -trace-out demo1.json    # Perfetto-loadable span trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/experiment"
	_ "repro/internal/explore" // registers the explore demo

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sttcp-demo:", err)
		os.Exit(1)
	}
}

func run() error {
	demo := flag.String("demo", "all", "demonstration to run: a registry name (demo1..demo5, demo2-upload, capacity, scale, ...), a bare number 1..5, or 'all'")
	seed := cliflags.Seed(42, "")
	eager := flag.Bool("eager", false, "enable the eager-retransmit takeover extension where applicable")
	showTrace := flag.Bool("trace", false, "dump the event trace after each demo")
	jsonPath := flag.String("json", "", "write demo1's ST-TCP event trace as JSON to this file")
	metricsOut := cliflags.MetricsOut("the final demo")
	traceOut := cliflags.TraceOut("the final demo")
	reportOut := cliflags.ReportOut("the final demo")
	telWindow := cliflags.TelemetryWindow(0)
	conns := flag.Int("conns", 0, "override the demo's concurrent-connection count where applicable (scale demo)")
	periodsFlag := flag.String("periods", "", "override the heartbeat-period sweep where applicable (demo2; comma-separated, e.g. 200ms,1s)")
	timeline := flag.Bool("timeline", false, "render each failover's span timeline and phase anatomy")
	flag.Parse()

	var periods []time.Duration
	for _, s := range strings.Split(*periodsFlag, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		p, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("-periods: %w", err)
		}
		periods = append(periods, p)
	}

	var selected []experiment.Demo
	if *demo == "all" {
		// 'all' means the paper's demonstrations; the extended studies
		// (capacity sweeps, the 2,000-connection scale run, ...) are heavy
		// and run only when named explicitly or through sttcp-bench.
		for _, d := range experiment.Demos() {
			if !d.Extended {
				selected = append(selected, d)
			}
		}
	} else {
		name := *demo
		if len(name) == 1 && name >= "1" && name <= "5" {
			name = "demo" + name // accept the historical bare numbers
		}
		d, ok := experiment.DemoByName(name)
		if !ok {
			var names []string
			for _, d := range experiment.Demos() {
				names = append(names, d.Name)
			}
			return fmt.Errorf("unknown -demo %q (want one of %s, or all)", *demo, strings.Join(names, ", "))
		}
		selected = []experiment.Demo{d}
	}

	// Exporting or rendering the span timeline wants the per-segment
	// detail spans that are otherwise switched off.
	detail := *traceOut != "" || *timeline

	// A report without time series is still useful, but when the user asks
	// for one and never set a window, default the sampler on.
	if *reportOut != "" && *telWindow == 0 {
		*telWindow = 100 * time.Millisecond
	}

	var lastSnapshot *metrics.Snapshot
	var lastTracer *trace.Recorder
	var lastReport *telemetry.Report
	for _, d := range selected {
		p := experiment.Params{
			Seed: *seed, Eager: *eager, TraceDetail: detail,
			Conns: *conns, Periods: periods, TelemetryWindow: *telWindow,
		}
		res, err := d.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		printResult(d, res, *showTrace, *timeline)
		if d.Name == "demo1" && *jsonPath != "" {
			if err := writeTraceJSON(*jsonPath, res); err != nil {
				return err
			}
		}
		if res.Metrics != nil {
			lastSnapshot = res.Metrics
		}
		if t := resultTracer(res); t != nil {
			lastTracer = t
		}
		lastReport = experiment.BuildReport(p, res)
	}
	if err := cliflags.WriteMetrics(*metricsOut, lastSnapshot); err != nil {
		return err
	}
	if err := cliflags.WriteChromeTrace(*traceOut, lastTracer); err != nil {
		return err
	}
	if err := cliflags.WriteReport(*reportOut, lastReport); err != nil {
		return err
	}
	return nil
}

// resultTracer picks the run whose trace -trace-out exports: the last
// testbed run of the demo.
func resultTracer(res experiment.Result) *trace.Recorder {
	if n := len(res.NIC); n > 0 {
		return res.NIC[n-1].Tracer
	}
	if n := len(res.Failovers); n > 0 {
		return res.Failovers[n-1].Tracer
	}
	return nil
}

// printAnatomy renders the failover's phase decomposition and an ASCII
// timeline zoomed to the window around it.
func printAnatomy(r experiment.FailoverResult) {
	if r.Tracer == nil {
		return
	}
	o := trace.TimelineOptions{Width: 100, Epoch: sim.Epoch}
	if a := r.Anatomy; a != nil {
		fmt.Println()
		fmt.Println(a.String())
		o.Start = a.FaultAt.Add(-150 * time.Millisecond)
		end := a.ResumeTxAt
		if a.StallEnd.After(end) {
			end = a.StallEnd
		}
		o.End = end.Add(250 * time.Millisecond)
	}
	fmt.Println()
	fmt.Print(r.Tracer.RenderSpanTimeline(o))
}

// printResult renders whichever result shape the demo produced.
func printResult(d experiment.Demo, res experiment.Result, showTrace, timeline bool) {
	fmt.Printf("\n=== %s: %s ===\n\n", d.Name, d.Title)
	switch {
	case res.Baseline != nil:
		printFailoverVsBaseline(res)
		if timeline {
			printAnatomy(res.Failovers[0])
		}
	case res.Overhead != nil:
		o := res.Overhead
		fmt.Printf("workload: %d MiB failure-free download over 100 Mbit/s\n\n", o.Size>>20)
		fmt.Printf("%-20s %v\n", "ST-TCP enabled:", o.WithSTTCP.Round(time.Millisecond))
		fmt.Printf("%-20s %v\n", "ST-TCP disabled:", o.WithoutTCP.Round(time.Millisecond))
		fmt.Printf("%-20s %.3f%%\n", "overhead:", o.OverheadPct)
	case res.Scale != nil:
		s := res.Scale
		fmt.Printf("%d connections × %d KiB each; primary crash=%v\n\n", s.Conns, s.BytesPerClient>>10, s.Crashed)
		fmt.Printf("%-22s %v\n", "backup took over:", s.TookOver)
		fmt.Printf("%-22s %d (pattern-verify failures: %d)\n", "clients completed:", s.ClientsDone, s.VerifyFailures)
		fmt.Printf("%-22s %d MiB in %v virtual\n", "payload:", s.TotalBytes>>20, s.VirtualElapsed.Round(time.Millisecond))
		fmt.Printf("%-22s %v\n", "detection:", s.DetectionTime.Round(time.Millisecond))
		fmt.Printf("%-22s %v\n", "max client stall:", s.MaxStall.Round(time.Millisecond))
		fmt.Printf("%-22s %d\n", "segments emitted:", s.SegmentsEmitted)
	case res.Explore != nil:
		e := res.Explore
		fmt.Printf("%-16s %d across %d fault points\n", "interleavings:", e.Interleavings, e.FaultPoints)
		fmt.Printf("%-16s %d (pruned %d, deduped %d)\n", "choice points:", e.ChoicePoints, e.Pruned, e.Deduped)
		verdict := fmt.Sprintf("NOT closed (frontier %d)", e.Frontier)
		if e.FullyClosed {
			verdict = "FULLY CLOSED: every interleaving explored"
		}
		fmt.Printf("%-16s %s\n", "window:", verdict)
		fmt.Printf("%-16s %d\n", "violations:", e.Violations)
	case len(res.Capacity) > 0:
		fmt.Printf("%-8s %-10s %-14s %-14s %s\n", "conns", "hb bytes", "mean interval", "max backlog", "saturated")
		for _, r := range res.Capacity {
			fmt.Printf("%-8d %-10d %-14v %-14v %v\n", r.Conns, r.MessageBytes,
				r.MeanInterval.Round(time.Millisecond), r.MaxQueueDelay.Round(time.Millisecond), r.Saturated)
		}
	case res.Distribution != nil:
		fmt.Printf("crash-phase sweep at hb=%v\n", res.Distribution.HBPeriod)
		fmt.Printf("%-12s %v\n", "detection:", res.Distribution.Detection)
		fmt.Printf("%-12s %v\n", "failover:", res.Distribution.Failover)
	case len(res.OutputCommit) > 0:
		for _, r := range res.OutputCommit {
			name := "without logger"
			if r.WithLogger {
				name = "with logger"
			}
			outcome := fmt.Sprintf("wedged after %d rounds (unrecoverable)", r.RoundsDone)
			if r.ClientDone {
				outcome = fmt.Sprintf("all %d rounds completed (%d recovery datagrams)", r.RoundsDone, r.LoggerServed)
			}
			fmt.Printf("%-16s takeover=%v  %s\n", name, r.TookOver, outcome)
		}
	case len(res.Witness) > 0:
		for _, r := range res.Witness {
			arb := "pairwise (no witness)"
			if r.WithWitness {
				arb = "witness majority"
			}
			fmt.Printf("%-24s resolved the partition in %v\n", arb, r.Resolution.Round(time.Millisecond))
		}
	case len(res.NICLoad) > 0:
		for _, r := range res.NICLoad {
			mode := "enhanced (HB state exchange)"
			if r.TapBothDirections {
				mode = "old (tap both directions)"
			}
			fmt.Printf("%-30s %8d KB at the backup NIC\n", mode, r.BackupRxBytes>>10)
		}
	case len(res.NIC) > 0:
		for _, r := range res.NIC {
			where, action := "backup", "primary entered non-fault-tolerant mode"
			if r.FailedAtPrimary {
				where, action = "primary", "backup took over the connection"
			}
			fmt.Printf("NIC failure at the %s: detected in %v; %s; client unaffected: %v\n",
				where, r.DetectionTime.Round(time.Millisecond), action, r.ClientOK)
			if showTrace && r.Tracer != nil {
				fmt.Println(r.Tracer.Dump())
			}
			if timeline && r.Tracer != nil {
				fmt.Println()
				fmt.Print(r.Tracer.RenderSpanTimeline(trace.TimelineOptions{Width: 100, Epoch: sim.Epoch}))
			}
		}
	default:
		fmt.Printf("%-14s %-14s %-12s %-12s %s\n", "scenario", "HB period", "detection", "failover", "completed")
		for _, r := range res.Failovers {
			scen := r.Scenario
			if scen == "" {
				scen = "-"
			}
			fmt.Printf("%-14s %-14v %-12v %-12v %v\n", scen, r.HBPeriod,
				r.DetectionTime.Round(time.Millisecond), r.FailoverTime.Round(time.Millisecond), r.Completed)
			if showTrace && r.Tracer != nil {
				fmt.Println(r.Tracer.Dump())
			}
			if timeline {
				printAnatomy(r)
			}
		}
	}
}

func printFailoverVsBaseline(res experiment.Result) {
	st, bl := res.Failovers[0], *res.Baseline
	fmt.Printf("workload: %d MiB download; primary HW crash mid-transfer\n\n", st.TotalBytes>>20)
	fmt.Printf("%-28s %-14s %-14s %-12s %s\n", "", "transfer time", "client stall", "reconnects", "completed")
	fmt.Printf("%-28s %-14v %-14v %-12d %v\n", "ST-TCP",
		st.TransferTime.Round(time.Millisecond), st.FailoverTime.Round(time.Millisecond), st.Reconnects, st.Completed)
	fmt.Printf("%-28s %-14v %-14v %-12d %v\n", "plain TCP + hot backup",
		bl.TransferTime.Round(time.Millisecond), bl.FailoverTime.Round(time.Millisecond), bl.Reconnects, bl.Completed)
	fmt.Printf("\nST-TCP detection time: %v; the client saw only a %v glitch and never reconnected.\n",
		st.DetectionTime.Round(time.Millisecond), st.FailoverTime.Round(time.Millisecond))

	// The demo GUI's pie chart, flattened into a timeline (one glyph per
	// 100 ms). The ST-TCP chart pauses briefly and keeps filling; the
	// baseline chart flatlines until the client's own stall detector
	// reconnects it.
	end := st.StartAt.Add(6 * time.Second)
	fmt.Println("\npie-chart progression (one glyph per 100ms):")
	fmt.Printf("ST-TCP:    %s\n", experiment.FormatTimeline(
		experiment.ProgressTimeline(st.Progress, st.TotalBytes, st.StartAt, end, 100*time.Millisecond)))
	fmt.Printf("baseline:  %s\n", experiment.FormatTimeline(
		experiment.ProgressTimeline(bl.Progress, bl.TotalBytes, bl.StartAt, bl.StartAt.Add(6*time.Second), 100*time.Millisecond)))
}

func writeTraceJSON(path string, res experiment.Result) error {
	if len(res.Failovers) == 0 || res.Failovers[0].Tracer == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := res.Failovers[0].Tracer.WriteJSON(f, sim.Epoch); err != nil {
		return err
	}
	fmt.Printf("\n(event trace written to %s)\n", path)
	return nil
}
