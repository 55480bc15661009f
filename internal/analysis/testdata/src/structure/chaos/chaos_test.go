package chaos

import "testing"

// Test files are read too, syntax only, for the per-runner checks.
func TestDraw(t *testing.T) {
	var tb interface{ FailureFree() error }  // want `one-judge: FailureFree is back`
	if err := tb.FailureFree(); err != nil { // want `one-judge: FailureFree is back`
		t.Fatal(err)
	}
	failureFreeRuns := 0 // another name
	_ = failureFreeRuns
}
