package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ip"
	"repro/internal/sttcp"
	"repro/internal/tcp"
)

// Lifecycle drives the repair loop on a testbed: it tracks which machine
// currently holds the primary role, crashes it, verifies the takeover,
// reboots it, and rejoins it as the new backup — restoring fault tolerance
// for the next round. It exists so tests, examples, and benchmarks can run
// arbitrarily many failover generations.
type Lifecycle struct {
	tb *Testbed

	// primary and backup are the nodes currently holding each role; the
	// two machines swap them every generation.
	primary, backup *sttcp.Node

	// Generations counts completed crash→rejoin cycles.
	Generations int
}

// NewLifecycle wraps a started testbed (StartSTTCP must have succeeded).
func NewLifecycle(tb *Testbed) *Lifecycle {
	return &Lifecycle{tb: tb, primary: tb.PrimaryNode, backup: tb.BackupNode}
}

// PrimaryHost returns the machine currently serving as primary.
func (lc *Lifecycle) PrimaryHost() *cluster.Host { return lc.primary.Host() }

// BackupNode returns the node currently in the backup role.
func (lc *Lifecycle) BackupNode() *sttcp.Node { return lc.backup }

// PrimaryNode returns the node currently in the primary role.
func (lc *Lifecycle) PrimaryNode() *sttcp.Node { return lc.primary }

func addrOf(h *cluster.Host) ip.Addr { return h.Netstack().Addr() }

// Reintegrate reboots the dead machine and rejoins it as the new backup of
// the (by now promoted) survivor, completing one generation. newApp is
// invoked to build the application replica for the rejoined node.
func (lc *Lifecycle) Reintegrate(newApp func(name string) func(*tcp.Conn)) error {
	dead, survivor := lc.PrimaryHost(), lc.backup
	if survivor.State() != sttcp.StateTakenOver {
		return fmt.Errorf("experiment: survivor state %v, want taken-over", survivor.State())
	}
	dead.Reboot()
	if err := survivor.EnableReplication(addrOf(dead), cluster.NewPowerController(dead)); err != nil {
		return fmt.Errorf("experiment: enable replication: %w", err)
	}
	// The new node's peer is the survivor.
	cfg := lc.tb.NodeConfig(addrOf(survivor.Host()), 0)
	fresh, err := sttcp.NewNode(dead, sttcp.RoleBackup, cfg, cluster.NewPowerController(survivor.Host()))
	if err != nil {
		return fmt.Errorf("experiment: new backup node: %w", err)
	}
	fresh.OnAccept = newApp(dead.Name() + "/app")
	if err := fresh.Start(); err != nil {
		return fmt.Errorf("experiment: start rejoined backup: %w", err)
	}
	// Swap roles: the survivor is the primary now, the rebooted machine
	// the backup.
	lc.primary, lc.backup = survivor, fresh
	lc.Generations++
	return nil
}
