package tcp_test

import (
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sttcp"
	"repro/internal/tcp"
)

// TestDataServerHoldsNoSendRing: a DataServer response is read from the
// server, not stored, on the primary and on the backup's replica alike, so
// neither send buffer holds a ring mid-download. The primary has read its
// source into the window's scratch; the backup, whose segments are all
// suppressed, has no scratch, which a sourced window makes at its first
// read, so its source was never asked. After the primary crashes mid-way
// the rest of the response is what the backup reads from its own source,
// and the client verifies every byte.
func TestDataServerHoldsNoSendRing(t *testing.T) {
	tb := experiment.Build(experiment.Options{Seed: 7})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	tb.AttachServers(false)
	cl, err := tb.StartClient("client/app", experiment.Workload{Bytes: 4 << 20})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	_ = tb.Run(100 * time.Millisecond)
	id := cl.Conn().ID()
	served := tcp.ConnID{LocalAddr: id.RemoteAddr, LocalPort: id.RemotePort, RemoteAddr: id.LocalAddr, RemotePort: id.LocalPort}
	primary, ok := tb.Primary.TCP().Lookup(served)
	backup, ok2 := tb.Backup.TCP().Lookup(served)
	if !ok || !ok2 || primary.SendWindow().Len() == 0 || backup.SendWindow().Len() == 0 {
		t.Fatalf("set-up: the served connection %v on primary (%v) and backup (%v) must both hold response bytes", served, ok, ok2)
	}
	if ring, scratch := primary.SendStorage(); ring != 0 || scratch == 0 {
		t.Errorf("primary: a ring of %d and a scratch of %d; want no ring, and a scratch its source was read into", ring, scratch)
	}
	if ring, scratch := backup.SendStorage(); ring != 0 || scratch != 0 || backup.SuppressedSegments == 0 {
		t.Errorf("backup: a ring of %d, a scratch of %d after %d suppressed segments; want no ring, no scratch, some segments",
			ring, scratch, backup.SuppressedSegments)
	}

	tb.Primary.CrashHW()
	_ = tb.Run(time.Minute)
	done, failures, cerr := cl.Outcome()
	if tb.BackupNode.State() != sttcp.StateTakenOver || !done || failures != 0 || cerr != nil {
		t.Fatalf("after the crash: backup %v; client done %v, %d verify failures, %v", tb.BackupNode.State(), done, failures, cerr)
	}
}
