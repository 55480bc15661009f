package scenario_test

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

// Example runs the paper's Demo 1 as a five-line script: a download
// survives a primary crash, transparently to the client.
func Example() {
	script := `
client download 8MiB
at 300ms crash primary
run 30s
expect takeover
expect clients-done
`
	sc, err := scenario.Parse(script)
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	res, err := scenario.Run(sc, experiment.Options{})
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	for _, c := range res.Checks {
		fmt.Printf("expect %s: %v\n", c.Cond, c.Passed)
	}
	// Output:
	// expect takeover: true
	// expect clients-done: true
}
