package chaos

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/sweep"
)

// Census is what a campaign's runs add up to: the takeovers and non-FT
// transitions they went through, and the client starts and faults a guard
// skipped.
type Census struct {
	Takeovers, NonFT int64
	Skipped          int
}

// Driver is one campaign: a source of jobs, each a plan and whatever else
// its caller pins the plan's run with (the explorer: a choice prefix), and
// how one runs. Drive runs it.
type Driver[J any] struct {
	// Next hands out the jobs in order; false means none for now, and Read
	// may give it more.
	Next func() (J, bool)
	// With is job j running plan p instead of its own: a shrink candidate.
	With func(j J, p experiment.Plan) J
	// Run runs job j, with per-segment trace detail when detail is set.
	Run func(j J, detail bool) (*RunResult, error)
	// Read, when set, is given every run read, in job order, the failing
	// one included; r is nil when the job failed to run.
	Read func(j J, r *RunResult)

	// ShrinkBudget bounds the runs spent minimising a failure. Minimize,
	// when set, minimises it further after experiment.Shrink, on what is
	// left of the budget, and returns the runs it spent.
	ShrinkBudget int
	Minimize     func(j J, budget int) (J, int, error)
	// Detail replays a failure's minimal reproduction with trace detail.
	Detail bool
}

// Failure is a campaign's first job, in job order, that violated an
// invariant: Found is its run in the campaign, Min its minimal
// reproduction, found in ShrinkRuns runs, and Result Min's run replayed
// alone, the one to report.
type Failure[J any] struct {
	Job, Min   J
	Found      *RunResult
	ShrinkRuns int
	Result     *RunResult
}

// Drive runs the jobs on the sweep pool without trace detail, reads their
// runs in job order and stops at the first that fails to run (its error is
// Drive's) or violates an invariant. That job is shrunk with
// experiment.Shrink, then Minimize, and its minimal reproduction replayed
// alone; a replay that does not violate again is an error. Drive returns
// the census of every run read, and the failure if there is one.
func (d Driver[J]) Drive() (Census, *Failure[J], error) {
	type outcome struct {
		r   *RunResult
		err error
	}
	var (
		c   Census
		f   *Failure[J]
		err error
	)
	sweep.Ordered(d.Next, func(j J) outcome {
		r, err := d.Run(j, false)
		return outcome{r, err}
	}, func(j J, o outcome) bool {
		if d.Read != nil {
			d.Read(j, o.r)
		}
		if err = o.err; err != nil {
			return false
		}
		c.Takeovers += o.r.Metrics.CounterTotal("sttcp.takeovers")
		c.NonFT += o.r.Metrics.CounterTotal("sttcp.nonft_transitions")
		c.Skipped += len(o.r.Skipped)
		if o.r.Failed() {
			f = &Failure[J]{Job: j, Found: o.r}
		}
		return f == nil
	})
	if err != nil || f == nil {
		return c, nil, err
	}
	return c, f, d.reproduce(f)
}

// reproduce fills in f's minimal reproduction and its replay.
func (d Driver[J]) reproduce(f *Failure[J]) error {
	p, runs, err := experiment.Shrink(f.Found.Plan, d.ShrinkBudget, func(c experiment.Plan) (bool, error) {
		r, err := d.Run(d.With(f.Job, c), false)
		return err == nil && r.Failed(), err
	})
	if err != nil {
		return err
	}
	f.Min, f.ShrinkRuns = d.With(f.Job, p), runs
	if d.Minimize != nil {
		if f.Min, runs, err = d.Minimize(f.Min, d.ShrinkBudget-runs); err != nil {
			return err
		}
		f.ShrinkRuns += runs
	}
	if f.Result, err = d.Run(f.Min, d.Detail); err == nil && !f.Result.Failed() {
		how := "alone"
		if d.Detail {
			how = "with trace detail"
		}
		err = fmt.Errorf("the minimal reproduction (%s) passed when replayed %s", Describe(f.Result.Plan), how)
	}
	return err
}

// Seeds is the Driver of seeds first..first+n-1 of campaign c: each job is
// its seed's plan, run with opts, and an error names the seed.
func (c Campaign) Seeds(first int64, n int, opts experiment.Options) Driver[experiment.Plan] {
	next := first
	return Driver[experiment.Plan]{
		Next: func() (experiment.Plan, bool) {
			if next == first+int64(n) {
				return experiment.Plan{}, false
			}
			next++
			return Generate(c, next-1), true
		},
		With: func(_, p experiment.Plan) experiment.Plan { return p },
		Run: func(p experiment.Plan, detail bool) (*RunResult, error) {
			o := opts
			o.TraceDetail = detail
			r, err := Run(p, o)
			if err != nil {
				return nil, fmt.Errorf("seed %d: %w", p.Seed, err)
			}
			return r, nil
		},
	}
}
