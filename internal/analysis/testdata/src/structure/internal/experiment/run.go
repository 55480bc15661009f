package experiment

import (
	"example.com/vet/internal/metrics"
	"example.com/vet/internal/trace"
)

// Result is per-runner plumbing the artifacts rule forbids.
type Result struct {
	Label            string
	Trace            *trace.Recorder // want `artifacts-one-place: a struct other than Testbed holds a trace\.Recorder`
	metrics.Snapshot                 // want `artifacts-one-place: a struct other than Testbed holds a metrics\.Snapshot`
}

func (p Plan) rerun(tb *Testbed) []Violation {
	start := tb.StartSTTCP // want `one-run: experiment\.Testbed\.StartSTTCP used here`
	_ = start
	tb.host.FailNIC() // want `faults-one-place: fault cluster\.Host\.FailNIC performed outside experiment\.Testbed`
	var local struct {
		tr *trace.Recorder // want `artifacts-one-place: a struct other than Testbed holds a trace\.Recorder`
	}
	_ = local
	return []Violation{{Invariant: "own-check"}} // want `one-judge: an experiment\.Violation built outside the registry`
}

// observe takes a recorder as a parameter: not a field, not a holder.
func observe(r *trace.Recorder) {}
