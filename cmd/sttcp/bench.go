package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/experiment"
)

// bench is one `sttcp bench` invocation.
type bench struct {
	w      io.Writer
	seed   int64
	csvDir string
	art    *cliflags.Artifacts
}

// setupBench is `sttcp bench`: it composes several registry runs into the
// series the paper discusses (Demo 2, Demo 3, §3 heartbeat capacity, the
// ablations) and their CSVs. Every figure is virtual time; what the code
// costs on the host is the benchmark's business (go run ./benchmark).
func setupBench(fs *flag.FlagSet) func(io.Writer) error {
	exp := fs.String("exp", "all", "experiment: demo2, demo3, hbcap, ablation, or all")
	seed := cliflags.Seed(fs, 42, "")
	csvDir := fs.String("csv", "", "also write the series as CSV files into this directory")
	art := cliflags.Register(fs, "the last testbed run", cliflags.Metrics|cliflags.Report|cliflags.Window)

	return func(stdout io.Writer) error {
		// hbcap drives a bare serial pair: no testbed, so no snapshot.
		if err := art.Check(*exp != "hbcap", false, false); err != nil {
			return usageErr("%w (-exp %s)", err, *exp)
		}
		b := &bench{w: stdout, seed: *seed, csvDir: *csvDir, art: art}
		sweeps := map[string]func() error{
			"demo2": b.demo2Sweep, "demo3": b.demo3Sweep, "hbcap": b.hbCapacitySweep, "ablation": b.ablations,
		}
		names := []string{*exp}
		if *exp == "all" {
			names = []string{"demo2", "demo3", "hbcap", "ablation"}
		}
		for _, name := range names {
			sweep, ok := sweeps[name]
			if !ok {
				return usageErr("unknown -exp %q (want demo2, demo3, hbcap, ablation, or all)", name)
			}
			if err := sweep(); err != nil {
				return err
			}
		}
		return art.Write(stdout)
	}
}

func (b *bench) writeCSV(name string, write func(w io.Writer) error) error {
	if b.csvDir == "" {
		return nil
	}
	path := filepath.Join(b.csvDir, name)
	if err := os.MkdirAll(b.csvDir, 0o755); err != nil {
		return err
	}
	if err := cliflags.WriteFile(path, write); err != nil {
		return err
	}
	fmt.Fprintf(b.w, "   (wrote %s)\n", path)
	return nil
}

// run looks the demo up in the registry, runs it, and notes its artifacts.
func (b *bench) run(name string, p experiment.Params) (experiment.Result, error) {
	d, ok := experiment.DemoByName(name)
	if !ok {
		return experiment.Result{}, fmt.Errorf("demo %q is not registered", name)
	}
	p.TelemetryWindow = b.art.Window()
	res, err := d.Run(p)
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	b.art.Note(res.Metrics, nil, experiment.BuildReport(p, res))
	return res, nil
}

func (b *bench) demo2Sweep() error {
	fmt.Fprintln(b.w, "\n## Demo 2 sweep: failover time vs heartbeat period")
	fmt.Fprintf(b.w, "%-12s %-14s %-14s %-14s\n", "hb period", "detection", "failover", "failover(eager)")
	periods := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second,
	}
	eagerRes, err := b.run("demo2", experiment.Params{Seed: b.seed, Periods: periods, Eager: true})
	if err != nil {
		return err
	}
	faithfulRes, err := b.run("demo2", experiment.Params{Seed: b.seed, Periods: periods})
	if err != nil {
		return err
	}
	faithful, eager := faithfulRes.Failovers, eagerRes.Failovers
	for i, r := range faithful {
		fmt.Fprintf(b.w, "%-12v %-14v %-14v %-14v\n", r.HBPeriod,
			r.DetectionTime.Round(time.Millisecond),
			r.FailoverTime.Round(time.Millisecond),
			eager[i].FailoverTime.Round(time.Millisecond))
	}
	err = b.writeCSV("demo2.csv", func(w io.Writer) error { return experiment.WriteDemo2CSV(w, faithful) })
	if err != nil {
		return err
	}

	fmt.Fprintln(b.w, "\n   crash-phase distribution at hb=200ms (8 crash instants across one period):")
	distRes, err := b.run("demo2-dist", experiment.Params{Seed: b.seed, Samples: 8})
	if err != nil {
		return err
	}
	dist := distRes.Distribution
	fmt.Fprintf(b.w, "   detection: %v\n   failover:  %v\n", dist.Detection, dist.Failover)
	fmt.Fprintln(b.w, "   (failover is quantised by the retransmission schedule, not by detection phase)")

	fmt.Fprintln(b.w, "\n   client-as-sender variant (restart driven by the client's backoff):")
	uploadRes, err := b.run("demo2-upload", experiment.Params{Seed: b.seed, Periods: periods})
	if err != nil {
		return err
	}
	for _, r := range uploadRes.Failovers {
		fmt.Fprintf(b.w, "%-12v %-14v %-14v\n", r.HBPeriod,
			r.DetectionTime.Round(time.Millisecond), r.FailoverTime.Round(time.Millisecond))
	}
	// Leave the faithful demo2 snapshot as the -metrics-out payload: its
	// counters are the ones the paper's Figure 4 discussion references.
	b.art.Note(faithfulRes.Metrics, nil, nil)
	return nil
}

func (b *bench) demo3Sweep() error {
	fmt.Fprintln(b.w, "\n## Demo 3 sweep: failure-free overhead vs transfer size")
	fmt.Fprintf(b.w, "%-12s %-14s %-14s %-10s\n", "size", "with ST-TCP", "without", "overhead")
	for _, size := range []int64{10 << 20, 50 << 20, 100 << 20} {
		res, err := b.run("demo3", experiment.Params{Seed: b.seed, Size: size})
		if err != nil {
			return err
		}
		o := res.Overhead
		fmt.Fprintf(b.w, "%-12s %-14v %-14v %.3f%%\n",
			fmt.Sprintf("%dMiB", size>>20),
			o.WithSTTCP.Round(time.Millisecond),
			o.WithoutTCP.Round(time.Millisecond),
			o.OverheadPct)
	}
	return nil
}

func (b *bench) hbCapacitySweep() error {
	fmt.Fprintln(b.w, "\n## §3 serial heartbeat capacity (115.2 kbit/s, 200 ms period)")
	serialRes, err := b.run("capacity", experiment.Params{})
	if err != nil {
		return err
	}
	printCapacity(b.w, serialRes.Capacity, true)
	err = b.writeCSV("hbcap.csv", func(w io.Writer) error { return experiment.WriteCapacityCSV(w, serialRes.Capacity) })
	if err != nil {
		return err
	}
	fmt.Fprintln(b.w, "\n   same load over a crossover 100 Mbit/s Ethernet heartbeat link (§3's advice):")
	ethRes, err := b.run("capacity", experiment.Params{
		ConnCounts:        []int{100, 250, 1000, 3500},
		LinkBitsPerSecond: 100_000_000,
	})
	if err != nil {
		return err
	}
	printCapacity(b.w, ethRes.Capacity, false)
	return nil
}

func (b *bench) ablations() error {
	fmt.Fprintln(b.w, "\n## Ablation: backup NIC load — enhanced HB state exchange vs pre-enhancement tap (§3)")
	nicRes, err := b.run("nicload", experiment.Params{Seed: b.seed})
	if err != nil {
		return err
	}
	printNICLoad(b.w, nicRes.NICLoad)

	fmt.Fprintln(b.w, "\n## Ablation: takeover strategy at hb=1s (paper waits for the next retransmission)")
	second := []time.Duration{time.Second}
	faithful, err := b.run("demo2", experiment.Params{Seed: b.seed, Periods: second})
	if err != nil {
		return err
	}
	eager, err := b.run("demo2", experiment.Params{Seed: b.seed, Periods: second, Eager: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(b.w, "%-28s failover %v\n", "faithful (wait for RTO)", faithful.Failovers[0].FailoverTime.Round(time.Millisecond))
	fmt.Fprintf(b.w, "%-28s failover %v\n", "eager retransmit extension", eager.Failovers[0].FailoverTime.Round(time.Millisecond))

	fmt.Fprintln(b.w, "\n## Extension: output-commit logger (§4.3's unrecoverable case)")
	ocRes, err := b.run("output-commit", experiment.Params{Seed: b.seed + 19})
	if err != nil {
		return err
	}
	printOutputCommit(b.w, ocRes.OutputCommit)
	return nil
}
