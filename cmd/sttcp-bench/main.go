// Command sttcp-bench runs the quantitative experiments behind the paper's
// demonstrations as parameter sweeps and prints the series the paper
// discusses: failover time versus heartbeat period (Demo 2), failure-free
// overhead versus transfer size (Demo 3), serial heartbeat capacity versus
// connection count (§3), and the two ablations (tap-vs-heartbeat state
// exchange, eager takeover).
//
// Usage:
//
//	sttcp-bench -exp demo2|demo3|hbcap|ablation|all [-seed 42] [-metrics-out m.json]
//
// Every figure it prints is virtual time. What the code costs on the host is
// the benchmark's business: go run ./benchmark (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sttcp-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "experiment: demo2, demo3, hbcap, ablation, or all")
	seed := cliflags.Seed(42, "")
	csvDir := flag.String("csv", "", "also write the series as CSV files into this directory")
	metricsOut := cliflags.MetricsOut("the last testbed run")
	reportOut := cliflags.ReportOut("the last testbed run")
	telWindow := cliflags.TelemetryWindow(0)
	flag.Parse()
	if *reportOut != "" && *telWindow == 0 {
		*telWindow = 100 * time.Millisecond
	}
	benchTelWindow = *telWindow
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		csvOut = *csvDir
	}

	run := map[string]bool{*exp: true}
	if *exp == "all" {
		run = map[string]bool{"demo2": true, "demo3": true, "hbcap": true, "ablation": true}
	}
	if run["demo2"] {
		if err := demo2Sweep(*seed); err != nil {
			return err
		}
	}
	if run["demo3"] {
		if err := demo3Sweep(*seed); err != nil {
			return err
		}
	}
	if run["hbcap"] {
		if err := hbCapacitySweep(); err != nil {
			return err
		}
	}
	if run["ablation"] {
		if err := ablations(*seed); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		if lastSnapshot == nil {
			return fmt.Errorf("-metrics-out: no testbed run produced a metric snapshot (did the selected -exp run one?)")
		}
		if err := cliflags.WriteMetrics(*metricsOut, lastSnapshot); err != nil {
			return err
		}
	}
	if err := cliflags.WriteReport(*reportOut, lastReport); err != nil {
		return err
	}
	return nil
}

// csvOut, when set, receives CSV exports of the sweeps.
var csvOut string

// lastSnapshot holds the metric snapshot of the most recent testbed run,
// for -metrics-out.
var lastSnapshot *metrics.Snapshot

// benchTelWindow is the -telemetry-window selection, threaded into every
// run; lastReport is the most recent run's report, for -report-out.
var (
	benchTelWindow time.Duration
	lastReport     *telemetry.Report
)

func noteSnapshot(s *metrics.Snapshot) {
	if s != nil {
		lastSnapshot = s
	}
}

func writeCSV(name string, write func(w *os.File) error) error {
	if csvOut == "" {
		return nil
	}
	path := filepath.Join(csvOut, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("   (wrote %s)\n", path)
	return nil
}

// runDemo looks the demo up in the experiment registry and runs it.
func runDemo(name string, p experiment.Params) (experiment.Result, error) {
	d, ok := experiment.DemoByName(name)
	if !ok {
		return experiment.Result{}, fmt.Errorf("demo %q is not registered", name)
	}
	p.TelemetryWindow = benchTelWindow
	res, err := d.Run(p)
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	noteSnapshot(res.Metrics)
	lastReport = experiment.BuildReport(p, res)
	return res, nil
}

func demo2Sweep(seed int64) error {
	fmt.Println("\n## Demo 2 sweep: failover time vs heartbeat period")
	fmt.Printf("%-12s %-14s %-14s %-14s\n", "hb period", "detection", "failover", "failover(eager)")
	periods := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second,
	}
	eagerRes, err := runDemo("demo2", experiment.Params{Seed: seed, Periods: periods, Eager: true})
	if err != nil {
		return err
	}
	faithfulRes, err := runDemo("demo2", experiment.Params{Seed: seed, Periods: periods})
	if err != nil {
		return err
	}
	faithful, eager := faithfulRes.Failovers, eagerRes.Failovers
	for i, r := range faithful {
		fmt.Printf("%-12v %-14v %-14v %-14v\n", r.HBPeriod,
			r.DetectionTime.Round(time.Millisecond),
			r.FailoverTime.Round(time.Millisecond),
			eager[i].FailoverTime.Round(time.Millisecond))
	}

	if err := writeCSV("demo2.csv", func(f *os.File) error {
		return experiment.WriteDemo2CSV(f, faithful)
	}); err != nil {
		return err
	}

	fmt.Println("\n   crash-phase distribution at hb=200ms (8 crash instants across one period):")
	distRes, err := runDemo("demo2-dist", experiment.Params{Seed: seed, Samples: 8})
	if err != nil {
		return err
	}
	dist := distRes.Distribution
	fmt.Printf("   detection: %v\n   failover:  %v\n", dist.Detection, dist.Failover)
	fmt.Println("   (failover is quantised by the retransmission schedule, not by detection phase)")

	fmt.Println("\n   client-as-sender variant (restart driven by the client's backoff):")
	uploadRes, err := runDemo("demo2-upload", experiment.Params{Seed: seed, Periods: periods})
	if err != nil {
		return err
	}
	for _, r := range uploadRes.Failovers {
		fmt.Printf("%-12v %-14v %-14v\n", r.HBPeriod,
			r.DetectionTime.Round(time.Millisecond), r.FailoverTime.Round(time.Millisecond))
	}
	// Leave the faithful demo2 snapshot as the -metrics-out payload: its
	// counters are the ones the paper's Figure 4 discussion references.
	noteSnapshot(faithfulRes.Metrics)
	return nil
}

func demo3Sweep(seed int64) error {
	fmt.Println("\n## Demo 3 sweep: failure-free overhead vs transfer size")
	fmt.Printf("%-12s %-14s %-14s %-10s\n", "size", "with ST-TCP", "without", "overhead")
	for _, size := range []int64{10 << 20, 50 << 20, 100 << 20} {
		res, err := runDemo("demo3", experiment.Params{Seed: seed, Size: size})
		if err != nil {
			return err
		}
		o := res.Overhead
		fmt.Printf("%-12s %-14v %-14v %.3f%%\n",
			fmt.Sprintf("%dMiB", size>>20),
			o.WithSTTCP.Round(time.Millisecond),
			o.WithoutTCP.Round(time.Millisecond),
			o.OverheadPct)
	}
	return nil
}

func hbCapacitySweep() error {
	fmt.Println("\n## §3 serial heartbeat capacity (115.2 kbit/s, 200 ms period)")
	fmt.Printf("%-8s %-10s %-14s %-14s %s\n", "conns", "hb bytes", "mean interval", "max backlog", "saturated")
	serialRes, err := runDemo("capacity", experiment.Params{})
	if err != nil {
		return err
	}
	series := serialRes.Capacity
	for _, res := range series {
		fmt.Printf("%-8d %-10d %-14v %-14v %v\n", res.Conns, res.MessageBytes,
			res.MeanInterval.Round(time.Millisecond), res.MaxQueueDelay.Round(time.Millisecond), res.Saturated)
	}
	if err := writeCSV("hbcap.csv", func(f *os.File) error {
		return experiment.WriteCapacityCSV(f, series)
	}); err != nil {
		return err
	}
	fmt.Println("\n   same load over a crossover 100 Mbit/s Ethernet heartbeat link (§3's advice):")
	fmt.Printf("%-8s %-14s %-14s %s\n", "conns", "mean interval", "max backlog", "saturated")
	ethRes, err := runDemo("capacity", experiment.Params{
		ConnCounts:        []int{100, 250, 1000, 3500},
		LinkBitsPerSecond: 100_000_000,
	})
	if err != nil {
		return err
	}
	for _, res := range ethRes.Capacity {
		fmt.Printf("%-8d %-14v %-14v %v\n", res.Conns,
			res.MeanInterval.Round(time.Millisecond), res.MaxQueueDelay.Round(time.Millisecond), res.Saturated)
	}
	return nil
}

func ablations(seed int64) error {
	fmt.Println("\n## Ablation: backup NIC load — enhanced HB state exchange vs pre-enhancement tap (§3)")
	nicRes, err := runDemo("nicload", experiment.Params{Seed: seed})
	if err != nil {
		return err
	}
	enhanced, old := nicRes.NICLoad[0].BackupRxBytes, nicRes.NICLoad[1].BackupRxBytes
	fmt.Printf("%-28s %8d KB received at backup NIC\n", "enhanced (HB state)", enhanced>>10)
	fmt.Printf("%-28s %8d KB received at backup NIC (%.1fx)\n", "old (tap both directions)", old>>10, float64(old)/float64(enhanced))

	fmt.Println("\n## Ablation: takeover strategy at hb=1s (paper waits for the next retransmission)")
	second := []time.Duration{time.Second}
	faithful, err := runDemo("demo2", experiment.Params{Seed: seed, Periods: second})
	if err != nil {
		return err
	}
	eager, err := runDemo("demo2", experiment.Params{Seed: seed, Periods: second, Eager: true})
	if err != nil {
		return err
	}
	fmt.Printf("%-28s failover %v\n", "faithful (wait for RTO)", faithful.Failovers[0].FailoverTime.Round(time.Millisecond))
	fmt.Printf("%-28s failover %v\n", "eager retransmit extension", eager.Failovers[0].FailoverTime.Round(time.Millisecond))

	fmt.Println("\n## Extension: output-commit logger (§4.3's unrecoverable case)")
	ocRes, err := runDemo("output-commit", experiment.Params{Seed: seed + 19})
	if err != nil {
		return err
	}
	for _, res := range ocRes.OutputCommit {
		name := "without logger"
		if res.WithLogger {
			name = "with logger"
		}
		outcome := fmt.Sprintf("wedged after %d/800 rounds (unrecoverable)", res.RoundsDone)
		if res.ClientDone {
			outcome = fmt.Sprintf("all %d rounds completed (%d recovery datagrams)", res.RoundsDone, res.LoggerServed)
		}
		fmt.Printf("%-28s %s\n", name, outcome)
	}
	return nil
}
