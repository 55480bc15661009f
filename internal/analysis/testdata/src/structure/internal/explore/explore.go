// Package explore is a corpus stand-in for the explorer, whose
// scheduler-order check audits the event queue rather than the run.
package explore

import "example.com/vet/structure/internal/experiment"

func order(msg string) experiment.Violation {
	return experiment.Violation{Invariant: "scheduler-order", Detail: msg}
}
