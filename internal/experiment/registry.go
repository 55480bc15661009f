package experiment

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/serial"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Params is the common parameter set every registered demo accepts.
// Zero values select each demo's paper-faithful defaults, so
// Params{Seed: 42} is always a valid input.
type Params struct {
	// Seed drives all randomness in the run.
	Seed int64
	// Size is the transfer size in bytes where the demo moves bulk data
	// (Demo 1: default 16 MiB; Demo 3: default 100 MiB; scale: per-client
	// bytes, default 32 KiB).
	Size int64
	// Periods is the heartbeat-period sweep (Demo 2 and its upload
	// variant; default 200 ms, 500 ms, 1 s — the paper's three
	// settings). The capacity and demo2-dist demos use Periods[0].
	Periods []time.Duration
	// Eager enables the eager-retransmit takeover extension (Demo 2).
	Eager bool
	// TraceDetail turns on per-segment trace events and segment-journey
	// spans in the failover demos (the -trace-out/-timeline CLI flags set
	// it); Demo 3's overhead benchmark ignores it.
	TraceDetail bool
	// TelemetryWindow, when > 0, attaches the windowed time-series
	// sampler to every testbed the demo builds (the -report-out and
	// -telemetry-window CLI flags set it). The run's virtual-time outcome
	// is unchanged; the result gains a Telemetry timeline.
	TelemetryWindow time.Duration

	// Conns is the concurrent-connection count for the scale demo
	// (default 2,000).
	Conns int
	// Workers bounds the worker pool for demos that fan independent
	// simulations through internal/sweep (capacity, demo2-dist,
	// output-commit, witness, nicload). 0 runs fully parallel; 1 forces
	// a serial sweep. Results are merged in input order either way, so
	// the output is identical for every setting.
	Workers int
}

// Result is the common result shape. Which fields are populated depends
// on the demo: every failover-style run lands in Failovers (one per
// sweep point or scenario), Demo 1 additionally fills Baseline, Demo 3
// fills Overhead, Demo 5 fills NIC, and the extended studies fill
// Capacity, Distribution, OutputCommit, Witness, NICLoad, Scale, or
// Table1. Metrics, Telemetry and Tracer come from the demo's last (or
// only) ST-TCP testbed run.
type Result struct {
	Demo      string
	Failovers []FailoverResult
	Baseline  *FailoverResult
	Overhead  *Demo3Result
	NIC       []Demo5Result
	Metrics   *metrics.Snapshot
	// Telemetry is the windowed time-series export, nil unless
	// Params.TelemetryWindow was set.
	Telemetry *telemetry.Timeline
	// Tracer is the run's recorder — what -trace, -timeline, -json and
	// -trace-out render. Every demo that builds a testbed fills it.
	Tracer *trace.Recorder

	// Capacity is the 115.2 kbit/s serial heartbeat link's capacity series,
	// EthernetCapacity the same load over the crossover 100 Mbit/s
	// Ethernet link §3 advises past ~100 connections (capacity demo).
	Capacity, EthernetCapacity []SerialCapacityResult
	// Distribution is the crash-phase failover distribution (demo2-dist).
	Distribution *Demo2Distribution
	// OutputCommit holds the §4.3 scenario without and with the logger.
	OutputCommit []OutputCommitResult
	// Witness holds the §4.2.2 FIN-conflict resolution without and with
	// the witness replica.
	Witness []WitnessResult
	// NICLoad holds the §3 tap-ablation pair (enhanced, then tap).
	NICLoad []NICLoadResult
	// Scale is the thousand-connection failover run (scale demo).
	Scale *ScaleResult
	// Table1 holds the ten single-failure rows of the paper's Table 1.
	Table1 []ScenarioResult
}

// Demo is one registered demonstration.
type Demo struct {
	// Name is the stable identifier used on command lines ("demo2").
	Name string
	// Title is the one-line human description.
	Title string
	// Extended marks studies beyond the paper's five demonstrations
	// (capacity curves, ablations, extension studies, the scale run);
	// `sttcp demo -demo all` selects only the non-extended demos.
	Extended bool
	// NoMetrics and NoTracer mark the demos whose Result leaves Metrics
	// or Tracer nil (fan-out studies, runs without a testbed), so a CLI
	// can refuse -metrics-out or -trace-out before the run instead of
	// after it.
	NoMetrics, NoTracer bool
	// Run executes the demo.
	Run func(Params) (Result, error)
}

// options are the testbed options the failover demos pass through: the
// seed plus the two observation switches.
func (p Params) options() Options {
	return Options{Seed: p.Seed, TraceDetail: p.TraceDetail, TelemetryWindow: p.TelemetryWindow}
}

// periods is the heartbeat-period sweep: Params.Periods, or the paper's
// three settings.
func (p Params) periods() []time.Duration {
	if len(p.Periods) > 0 {
		return p.Periods
	}
	return []time.Duration{200 * time.Millisecond, 500 * time.Millisecond, time.Second}
}

// or returns v, or def when v is its type's zero value: how a Params field
// selects its paper-faithful default.
func or[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// Demos returns every registered demonstration in presentation order, each
// stamping its name on the Result it returns. The slice is freshly
// allocated; callers may reorder or filter it.
func Demos() []Demo {
	all := builtinDemos()
	for i := range all {
		name, run := all[i].Name, all[i].Run
		all[i].Run = func(p Params) (Result, error) {
			res, err := run(p)
			res.Demo = name
			return res, err
		}
	}
	return all
}

// failovers runs one failover-style variant per element of variants and
// collects them; Metrics, Telemetry and Tracer are the last run's.
func failovers[V any](variants []V, run func(V) (FailoverResult, error)) (Result, error) {
	var out Result
	for _, v := range variants {
		r, err := run(v)
		if err != nil {
			return out, fmt.Errorf("%v: %w", v, err)
		}
		out.Failovers = append(out.Failovers, r)
	}
	return withLastRun(out), nil
}

func builtinDemos() []Demo {
	return []Demo{
		{
			Name:  "demo1",
			Title: "transparent failover vs. reconnecting hot-backup baseline",
			Run: func(p Params) (Result, error) {
				st, bl, err := runDemo1(p.options(), or(p.Size, 16<<20))
				return withLastRun(Result{Failovers: []FailoverResult{st}, Baseline: &bl}), err
			},
		},
		{
			Name:  "demo2",
			Title: "failover time vs. heartbeat period",
			Run: func(p Params) (Result, error) {
				rs, err := runDemo2(p.options(), p.periods(), p.Eager)
				return withLastRun(Result{Failovers: rs}), err
			},
		},
		{
			Name:  "demo2-upload",
			Title: "failover time vs. heartbeat period, client as sender",
			Run: func(p Params) (Result, error) {
				rs, err := runDemo2Upload(p.options(), p.periods())
				return withLastRun(Result{Failovers: rs}), err
			},
		},
		{
			Name:  "demo3",
			Title: "failure-free overhead of replication",
			Run: func(p Params) (Result, error) {
				d, err := runDemo3(p.Seed, or(p.Size, 100<<20))
				return Result{Overhead: &d, Metrics: d.Metrics, Tracer: d.Tracer}, err
			},
		},
		{
			Name:  "demo4",
			Title: "application crash with and without OS cleanup",
			Run: func(p Params) (Result, error) {
				return failovers([]AppCrashMode{CrashNoCleanup, CrashWithCleanup}, func(mode AppCrashMode) (FailoverResult, error) {
					r, err := runDemo4(p.options(), mode)
					r.Scenario = mode.String()
					return r, err
				})
			},
		},
		{
			Name:  "demo5",
			Title: "NIC failure diagnosis at the primary and the backup",
			Run: func(p Params) (Result, error) {
				var out Result
				for _, atPrimary := range []bool{true, false} {
					r, err := runDemo5(p.options(), atPrimary)
					if err != nil {
						return out, err
					}
					out.NIC = append(out.NIC, r)
					out.Metrics, out.Telemetry, out.Tracer = r.Metrics, r.Telemetry, r.Tracer
				}
				return out, nil
			},
		},
		{
			Name:     "capacity",
			Title:    "heartbeat-link capacity vs connection count (§3 bandwidth budget)",
			Extended: true, NoMetrics: true, NoTracer: true, // a bare serial pair, no testbed
			Run: func(p Params) (Result, error) {
				series := func(bps int64, counts ...int) ([]SerialCapacityResult, error) {
					return fanIdx(p.Workers, len(counts), func(i int) (SerialCapacityResult, error) {
						return runHBLinkCapacity(counts[i], p.periods()[0], 10*time.Second, bps)
					})
				}
				overSerial, err := series(serial.DefaultBitsPerSecond, 1, 10, 25, 50, 75, 100, 125, 150, 250)
				if err != nil {
					return Result{}, err
				}
				overEthernet, err := series(100_000_000, 100, 250, 1000, 3500)
				return Result{Capacity: overSerial, EthernetCapacity: overEthernet}, err
			},
		},
		{
			Name:     "demo2-dist",
			Title:    "failover-time distribution across the crash phase at one heartbeat period",
			Extended: true, NoMetrics: true,
			Run: func(p Params) (Result, error) {
				dist, tracer, err := runDemo2Sampled(p.Seed, p.periods()[0], demo2DistSamples, p.Workers)
				return Result{Distribution: &dist, Tracer: tracer}, err
			},
		},
		{
			Name:     "output-commit",
			Title:    "§4.3 output-commit gap, without and with the logger machine",
			Extended: true, NoMetrics: true,
			Run: func(p Params) (Result, error) {
				rs, tracer, err := pair(p, runOutputCommit, func(r OutputCommitResult) *trace.Recorder { return r.Tracer })
				return Result{OutputCommit: rs, Tracer: tracer}, err
			},
		},
		{
			Name:     "witness",
			Title:    "§4.2.2 FIN-conflict resolution, pairwise vs witness majority",
			Extended: true, NoMetrics: true,
			Run: func(p Params) (Result, error) {
				rs, tracer, err := pair(p, runWitnessConflict, func(r WitnessResult) *trace.Recorder { return r.Tracer })
				return Result{Witness: rs, Tracer: tracer}, err
			},
		},
		{
			Name:     "nicload",
			Title:    "§3 tap ablation: backup NIC receive volume, enhanced vs tap-both-directions",
			Extended: true, NoMetrics: true,
			Run: func(p Params) (Result, error) {
				rs, tracer, err := pair(p, runBackupNICLoad, func(r NICLoadResult) *trace.Recorder { return r.Tracer })
				return Result{NICLoad: rs, Tracer: tracer}, err
			},
		},
		{
			Name:     "gray",
			Title:    "gray failure: slow-not-dead primary, starvation the scorer rides out vs convicts",
			Extended: true,
			Run: func(p Params) (Result, error) {
				// Mild starvation keeps echo responses inside the SLO — the
				// scorer must stay quiet. Heavy starvation pushes every
				// response far past it — the scorer must convict.
				return failovers([]float64{25, 500}, func(scale float64) (FailoverResult, error) {
					return runGrayStarve(p.options(), scale)
				})
			},
		},
		{
			Name:     "scale",
			Title:    "thousand-connection capacity: concurrent transfers across a primary crash",
			Extended: true,
			Run: func(p Params) (Result, error) {
				sc, err := runScaleFailover(p.Seed, or(p.Conns, 2000), or(p.Size, 32<<10), p.TelemetryWindow)
				return Result{Scale: &sc, Metrics: sc.Metrics, Telemetry: sc.Telemetry, Tracer: sc.Tracer}, err
			},
		},
		{
			Name:     "table1",
			Title:    "Table 1 single-failure matrix (continuous echo, failure injected at t=2s; row i runs at seed+i)",
			Extended: true,
			Run: func(p Params) (Result, error) {
				var out Result
				for i, sc := range Scenarios {
					o := p.options()
					o.Seed += int64(i)
					r, err := runScenario(o, sc)
					if err != nil {
						return out, fmt.Errorf("%v: %w", sc, err)
					}
					out.Table1 = append(out.Table1, r)
					out.Metrics, out.Telemetry, out.Tracer = r.Metrics, r.Telemetry, r.Tracer
				}
				return out, nil
			},
		},
	}
}

// fanIdx fans job(0..n-1) across the sweep worker pool, merging results
// in input order — the registry's bridge to internal/sweep for demos
// whose sweep axis is an index (conn count, scenario variant) rather
// than a seed.
func fanIdx[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	return sweep.Run(workers, sweep.Seeds(0, n), func(seed int64) (T, error) {
		return job(int(seed))
	})
}

// DemoByName finds a registered demo.
func DemoByName(name string) (Demo, bool) {
	for _, d := range Demos() {
		if d.Name == name {
			return d, true
		}
	}
	return Demo{}, false
}

// withLastRun fills the result's Metrics, Telemetry and Tracer from its
// last failover run.
func withLastRun(res Result) Result {
	if n := len(res.Failovers); n > 0 {
		last := res.Failovers[n-1]
		res.Metrics, res.Telemetry, res.Tracer = last.Metrics, last.Telemetry, last.Tracer
	}
	return res
}
