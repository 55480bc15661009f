package experiment

import (
	"fmt"
	"time"

	"repro/internal/sttcp"
)

// Gray-failure demonstration: the slow-not-dead primary.
//
// Every fault the paper's five demos inject is crisp — a machine, NIC, or
// application that is either working or provably gone, so some Table 1
// criterion fires. CPU starvation is the canonical failure that is
// neither: heartbeats still flow on both links, the application's write
// position still (slowly) advances, yet clients wait far past any
// response SLO. The demo runs the identical echo workload twice with the
// suspicion scorer enabled: once under mild starvation the scorer must
// ride out (responses stay inside the SLO; no failover), and once under
// starvation heavy enough that the scorer convicts the primary and the
// backup takes over a service that never technically died.

// runGrayStarve runs one echo workload against a primary whose CPU is
// slowed by scale for the starvation window, with the suspicion scorer
// on. Read out as a failover, CrashAt is the moment starvation begins; a
// run the scorer rides out simply has no takeover anatomy.
func runGrayStarve(o Options, scale float64) (*Run, error) {
	run, err := Plan{
		Options: o,
		Mutate:  func(c *sttcp.Config) { c.Suspicion.Enabled = true },
		Clients: []Workload{Workload{Echo: true, Rounds: 1000, MsgSize: 512, Gap: 5 * time.Millisecond}},
		// The window lasts long enough for the scorer to accrue to
		// threshold at the convicting scale.
		Faults:  []Fault{{At: time.Second, Kind: FaultStarve, Host: "primary", Dur: 8 * time.Second, Scale: scale}},
		Horizon: 10 * time.Minute,
	}.Run()
	if err == nil {
		run.Label = fmt.Sprintf("starve-x%g", scale)
	}
	return run, err
}
