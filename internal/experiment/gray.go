package experiment

import (
	"fmt"
	"time"

	"repro/internal/app"
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

// grayStarveAfter is when the starvation window opens, and
// grayStarveFor how long it lasts — long enough for the scorer to
// accrue to threshold at the convicting scale.
const (
	grayStarveAfter = time.Second
	grayStarveFor   = 8 * time.Second
)

// runGrayStarve runs one echo workload against a primary whose CPU is
// slowed by scale for the starvation window, with the suspicion scorer
// on, and reports the outcome as a FailoverResult (CrashAt is the moment
// starvation begins; a run the scorer rides out simply has no takeover
// anatomy).
func runGrayStarve(seed int64, scale float64, detail bool, telWindow time.Duration) (FailoverResult, error) {
	tb := Build(Options{Seed: seed, TraceDetail: detail, TelemetryWindow: telWindow})
	err := tb.StartSTTCP(0, func(c *sttcp.Config) {
		c.Suspicion.Enabled = true
	})
	if err != nil {
		return FailoverResult{}, err
	}
	tb.attachServers(true)

	const rounds, msgSize = 1000, 512
	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, rounds, msgSize, tb.Tracer)
	cl.Gap = 5 * time.Millisecond
	cl.Telemetry = tb.Telemetry.NewClientTrack()
	if err := cl.Start(); err != nil {
		return FailoverResult{}, err
	}

	starveAt := tb.Sim.Now().Add(grayStarveAfter)
	tb.Sim.At(starveAt, func() { tb.Primary.SetCPUScale(scale) })
	tb.Sim.At(starveAt.Add(grayStarveFor), func() { tb.Primary.SetCPUScale(1) })

	if err := tb.Run(10 * time.Minute); err != nil {
		return FailoverResult{}, err
	}
	r := FailoverResult{
		Scenario:       fmt.Sprintf("starve-x%g", scale),
		HBPeriod:       tb.BackupNode.Config().HB.Period,
		CrashAt:        starveAt,
		Completed:      cl.Done && cl.Err == nil && cl.VerifyFailures == 0,
		ClientErr:      cl.Err,
		BytesReceived:  int64(cl.RoundsDone) * msgSize,
		VerifyFailures: cl.VerifyFailures,
	}
	fillFailoverTimes(&r, tb, cl.MaxGap)
	return r, nil
}
