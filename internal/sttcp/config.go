package sttcp

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/hb"
	"repro/internal/ip"
)

// Role aliases the heartbeat role: a node is the primary or the backup.
type Role = hb.Role

// Roles re-exported for callers.
const (
	RolePrimary = hb.RolePrimary
	RoleBackup  = hb.RoleBackup
)

// NodeState is the life-cycle state of an ST-TCP node.
type NodeState int

// Node states.
const (
	// StateActive is normal fault-tolerant operation (both roles).
	StateActive NodeState = iota + 1
	// StateNonFT is a primary that has declared its backup failed and
	// continues to serve without fault tolerance (Table 1's "primary
	// runs in non fault-tolerant mode").
	StateNonFT
	// StateTakenOver is a backup that has taken over the client
	// connections after a primary failure.
	StateTakenOver
	// StateStopped is a node shut down by a crash or by Stop.
	StateStopped
)

// lifecycle is the node's transition table: each state's name and the
// states it may move to. Every state can crash into Stopped, which is
// terminal. A node leaves Active when it declares its peer failed (a backup
// takes over, a primary goes non-FT) and re-enters it only by pairing with a
// repaired peer (EnableReplication) — as that pair's primary, whatever its
// role was.
var lifecycle = map[NodeState]struct {
	name string
	next []NodeState
}{
	StateActive:    {"active", []NodeState{StateTakenOver, StateNonFT, StateStopped}},
	StateTakenOver: {"taken-over", []NodeState{StateActive, StateStopped}},
	StateNonFT:     {"non-fault-tolerant", []NodeState{StateActive, StateStopped}},
	StateStopped:   {"stopped", nil},
}

// String names the state.
func (s NodeState) String() string {
	if row, ok := lifecycle[s]; ok {
		return row.name
	}
	return fmt.Sprintf("NodeState(%d)", int(s))
}

// transition is the lifecycle as a pure function: whether a node in state
// from, holding role, may move to state to, and the role it holds after.
func transition(from NodeState, role Role, to NodeState) (Role, bool) {
	if !slices.Contains(lifecycle[from].next, to) {
		return role, false
	}
	if to == StateActive {
		role = RolePrimary
	}
	return role, true
}

// holdBufferSize bounds, per connection, the client bytes the primary keeps
// for the missed-byte recovery protocol until the backup reports them (the
// paper's extra receive buffer, §2): past it the primary's advertised window
// closes. The logger keeps the newest holdBufferSize bytes of a stream.
const holdBufferSize = 1 << 20

// Well-known inter-server ports.
const (
	// DefaultHBPort carries the UDP heartbeat on the IP link.
	DefaultHBPort = 7000
	// DefaultCtrlPort carries connection announcements and the
	// missed-byte recovery protocol.
	DefaultCtrlPort = 7001
	// DefaultWitnessHBPort carries the witness replica's heartbeat,
	// kept apart from the primary↔backup heartbeat so witness traffic
	// cannot mask the backup's liveness.
	DefaultWitnessHBPort = 7002
)

// Config parameterises an ST-TCP node: the deployment's addresses and the
// protocol parameters the paper names. Zero values select the paper's
// defaults (DESIGN.md §7); every other hold a detector keeps is a constant
// of this package.
type Config struct {
	// ServiceAddr and ServicePort are the virtual service endpoint the
	// clients connect to; the address is an alias on both servers.
	ServiceAddr ip.Addr
	ServicePort uint16

	// PeerAddr is the peer server's own (non-service) address, used for
	// the UDP heartbeat and control channels.
	PeerAddr ip.Addr

	// HBPeriod is the heartbeat period (default 200 ms, §3; Demo 2 varies
	// it). A link silent for hb.Timeout(HBPeriod) is down, and the
	// periodic failure detectors run every half period.
	HBPeriod time.Duration

	// AppMaxLagBytes is the first application failure criterion of
	// §4.2.1: the peer application lags by more than AppMaxLagBytes
	// continuously for appLagByteHold.
	AppMaxLagBytes int64

	// AppMaxLagTime is the second criterion: any byte read or written
	// locally remains unread/unwritten by the peer application for this
	// long.
	AppMaxLagTime time.Duration

	// MaxDelayFIN bounds how long a FIN generated by only one server is
	// withheld while waiting for more evidence (§4.2.2; paper suggests
	// about a minute — demos shrink it).
	MaxDelayFIN time.Duration

	// GatewayAddr is pinged when the IP heartbeat link fails while the
	// serial link survives (§4.3). Zero disables ping arbitration.
	GatewayAddr ip.Addr

	// LoggerAddr, when set, is the optional logger machine (§4.3's
	// output-commit fix): at takeover the backup recovers any client
	// bytes the dead primary had acknowledged from the logger's tap.
	LoggerAddr ip.Addr

	// Witness marks this node as a witness replica (the paper's
	// "additional backup server" of §4.2.2): it replicates the
	// application with suppressed output and reports its state to the
	// primary, but never takes over and needs no serial link or power
	// control.
	Witness bool

	// WitnessAddr, set on the primary, enables majority decisions for
	// FIN disagreements: when the primary and the backup disagree about
	// a close, the witness's vote decides after three heartbeat periods
	// instead of waiting out MaxDelayFIN.
	WitnessAddr ip.Addr

	// EagerTakeoverRetransmit, when true, retransmits immediately at
	// takeover instead of waiting for the next retransmission timer —
	// an extension over the paper measured by `sttcp demo -demo demo2 -eager`.
	EagerTakeoverRetransmit bool
}

func (c *Config) fillDefaults() {
	c.ServicePort = cmp.Or(c.ServicePort, 80)
	if c.HBPeriod <= 0 {
		c.HBPeriod = 200 * time.Millisecond
	}
	c.AppMaxLagBytes = cmp.Or(c.AppMaxLagBytes, 64<<10)
	c.AppMaxLagTime = cmp.Or(c.AppMaxLagTime, 5*time.Second)
	c.MaxDelayFIN = cmp.Or(c.MaxDelayFIN, time.Minute)
}
