package experiment

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/trace"
)

// NICLoadResult is one arm of the "nicload" registry demo: the backup
// NIC's receive volume under one tap topology.
type NICLoadResult struct {
	TapBothDirections bool
	BackupRxBytes     int64
	Tracer            *trace.Recorder
}

// runBackupNICLoad measures the backup NIC's receive volume during a
// 16 MiB failure-free download, either with the enhanced design (§3: the
// backup receives only client→server traffic plus heartbeats) or with the
// pre-enhancement tap in which primary→client traffic also reaches the
// backup's NIC — the overload that motivated the design change. Reached
// through the "nicload" registry demo.
func runBackupNICLoad(seed int64, tapBothDirections bool) (NICLoadResult, error) {
	out := NICLoadResult{TapBothDirections: tapBothDirections}
	tb := Build(Options{Seed: seed, TapBothDirections: tapBothDirections})
	if err := tb.StartSTTCP(0, nil); err != nil {
		return out, err
	}
	tb.attachServers(false)
	cl := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: 16 << 20, Tracer: tb.Tracer,
	})
	if err := cl.Start(); err != nil {
		return out, err
	}
	if err := tb.Run(2 * time.Minute); err != nil {
		return out, err
	}
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		return out, fmt.Errorf("experiment: ablation transfer failed (tap=%v): %v", tapBothDirections, cl.Err)
	}
	out.BackupRxBytes, out.Tracer = tb.Backup.NIC().RxBytes, tb.Tracer
	return out, nil
}
