package experiment

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/serial"
	"repro/internal/sweep"
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
	// it); the fan-out studies, Demo 3 and scale ignore it.
	TraceDetail bool
	// TelemetryWindow, when > 0, attaches the windowed time-series
	// sampler to every testbed the demo builds (the -report-out CLI flag
	// sets it). The run's virtual-time outcome is unchanged; each run's
	// testbed gains a timeline.
	TelemetryWindow time.Duration

	// Conns is the concurrent-connection count for the scale demo
	// (default 2,000).
	Conns int
}

// View is the hook a Printer calls after the lines that describe one run,
// with that run and — where the timeline should zoom to it — its failover
// anatomy: `sttcp demo -trace / -timeline` render the run's trace there.
type View func(r *Run, zoom *trace.FailoverAnatomy)

// Printer writes a demo's summary to w. Only Table 1 can fail here.
type Printer func(w io.Writer, view View) error

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
	// Run executes the demo and returns its ST-TCP runs in order — the last
	// is the one whose metrics, trace and report a CLI exports — plus the
	// function that prints them.
	Run func(Params) ([]*Run, Printer, error)
}

// HasTestbed reports whether the demo builds a testbed, and so has runs to
// read metrics, a trace, a timeline and a report off: every demo but the
// bare serial pair of "capacity". A CLI refuses the artifact flags on its
// strength before the run instead of after it.
func (d Demo) HasTestbed() bool { return d.Name != "capacity" }

// options are the testbed options the failover demos pass through: the
// seed plus the two observation switches.
func (p Params) options() Options {
	return Options{Seed: p.Seed, TraceDetail: p.TraceDetail, TelemetryWindow: p.TelemetryWindow}
}

// sampled is options without the per-segment detail, for the demos that
// never take it: the fan-out studies, Demo 3's 100 MiB legs, scale.
func (p Params) sampled() Options {
	return Options{Seed: p.Seed, TelemetryWindow: p.TelemetryWindow}
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

// each runs one variant per element of variants and collects the runs.
func each[V any](variants []V, run func(V) (*Run, error)) ([]*Run, error) {
	var runs []*Run
	for _, v := range variants {
		r, err := run(v)
		if err != nil {
			return runs, fmt.Errorf("%v: %w", v, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// Demos returns every registered demonstration in presentation order. The
// slice is freshly allocated; callers may reorder or filter it.
func Demos() []Demo {
	return []Demo{
		{
			Name:  "demo1",
			Title: "transparent failover vs. reconnecting hot-backup baseline",
			Run: func(p Params) ([]*Run, Printer, error) {
				st, bl, err := runDemo1(p.options(), or(p.Size, 16<<20))
				return []*Run{st}, printDemo1(st, bl), err
			},
		},
		{
			Name:  "demo2",
			Title: "failover time vs. heartbeat period",
			Run: func(p Params) ([]*Run, Printer, error) {
				runs, err := runDemo2(p.options(), p.periods(), p.Eager)
				return runs, printFailovers(runs), err
			},
		},
		{
			Name:  "demo2-upload",
			Title: "failover time vs. heartbeat period, client as sender",
			Run: func(p Params) ([]*Run, Printer, error) {
				runs, err := runDemo2Upload(p.options(), p.periods())
				return runs, printFailovers(runs), err
			},
		},
		{
			Name:  "demo3",
			Title: "failure-free overhead of replication",
			Run: func(p Params) ([]*Run, Printer, error) {
				run, d, err := runDemo3(p.sampled(), or(p.Size, 100<<20))
				return []*Run{run}, printDemo3(run, d), err
			},
		},
		{
			Name:  "demo4",
			Title: "application crash with and without OS cleanup",
			Run: func(p Params) ([]*Run, Printer, error) {
				runs, err := each([]AppCrashMode{CrashNoCleanup, CrashWithCleanup}, func(mode AppCrashMode) (*Run, error) {
					return runDemo4(p.options(), mode)
				})
				return runs, printFailovers(runs), err
			},
		},
		{
			Name:  "demo5",
			Title: "NIC failure diagnosis at the primary and the backup",
			Run: func(p Params) ([]*Run, Printer, error) {
				runs, err := each([]Scenario{NICFailPrimary, NICFailBackup}, func(at Scenario) (*Run, error) {
					return runDemo5(p.options(), at)
				})
				return runs, printDemo5(runs), err
			},
		},
		{
			Name:     "capacity",
			Title:    "heartbeat-link capacity vs connection count (§3 bandwidth budget)",
			Extended: true, // a bare serial pair, no testbed: no runs
			Run: func(p Params) ([]*Run, Printer, error) {
				series := func(bps int64, counts ...int) ([]SerialCapacityResult, error) {
					out, errs := make([]SerialCapacityResult, len(counts)), make([]error, len(counts))
					sweep.Run(len(counts), func(i int) {
						out[i], errs[i] = runHBLinkCapacity(counts[i], p.periods()[0], 10*time.Second, bps)
					})
					return out, errors.Join(errs...)
				}
				overSerial, err := series(serial.DefaultBitsPerSecond, 1, 10, 25, 50, 75, 100, 125, 150, 250)
				if err != nil {
					return nil, nil, err
				}
				overEthernet, err := series(100_000_000, 100, 250, 1000, 3500)
				return nil, printCapacity(overSerial, overEthernet), err
			},
		},
		{
			Name:     "demo2-dist",
			Title:    "failover-time distribution across the crash phase at one heartbeat period",
			Extended: true,
			Run: func(p Params) ([]*Run, Printer, error) {
				runs, err := runDemo2Sampled(p.sampled(), p.periods()[0], demo2DistSamples)
				return runs, printDistribution(runs), err
			},
		},
		{
			Name:     "output-commit",
			Title:    "§4.3 output-commit gap, without and with the logger machine",
			Extended: true,
			Run: func(p Params) ([]*Run, Printer, error) {
				arms, err := pair(p, runOutputCommit)
				return arms, printOutputCommit(arms), err
			},
		},
		{
			Name:     "witness",
			Title:    "§4.2.2 FIN-conflict resolution, pairwise vs witness majority",
			Extended: true,
			Run: func(p Params) ([]*Run, Printer, error) {
				arms, err := pair(p, runWitnessConflict)
				return arms, printWitness(arms), err
			},
		},
		{
			Name:     "nicload",
			Title:    "§3 tap ablation: backup NIC receive volume, enhanced vs tap-both-directions",
			Extended: true,
			Run: func(p Params) ([]*Run, Printer, error) {
				arms, err := pair(p, runBackupNICLoad)
				return arms, printNICLoad(arms), err
			},
		},
		{
			Name:     "gray",
			Title:    "gray failure: slow-not-dead primary, starvation the scorer rides out vs convicts",
			Extended: true,
			Run: func(p Params) ([]*Run, Printer, error) {
				// Mild starvation keeps echo responses inside the SLO — the
				// scorer must stay quiet. Heavy starvation pushes every
				// response far past it — the scorer must convict.
				runs, err := each([]float64{25, 500}, func(scale float64) (*Run, error) {
					return runGrayStarve(p.options(), scale)
				})
				return runs, printFailovers(runs), err
			},
		},
		{
			Name:     "scale",
			Title:    "thousand-connection capacity: concurrent transfers across a primary crash",
			Extended: true,
			Run: func(p Params) ([]*Run, Printer, error) {
				run, sc, err := runScaleFailover(p.sampled(), or(p.Conns, 2000), or(p.Size, 32<<10))
				return []*Run{run}, printScale(run, sc), err
			},
		},
		{
			Name:     "table1",
			Title:    "Table 1 single-failure matrix (continuous echo, failure injected at t=2s; row i runs at seed+i)",
			Extended: true,
			Run: func(p Params) ([]*Run, Printer, error) {
				runs, err := each(Scenarios, func(sc Scenario) (*Run, error) {
					o := p.options()
					o.Seed += int64(sc - 1) // the row's index
					return runScenario(o, sc)
				})
				return runs, printTable1(runs), err
			},
		},
	}
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
