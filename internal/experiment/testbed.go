// Package experiment reproduces the paper's experimental setup (Figure 2)
// and its five planned demonstrations plus the Table 1 failure matrix. The
// testbed builder wires the client, gateway, primary, and backup to one
// Ethernet switch, maps the service IP to a multicast Ethernet group so
// both servers receive every client frame, and strings the null-modem
// serial cable between the servers; the scenario runners inject the paper's
// failures and measure what the client observes.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Topology constants (the addresses of Figure 2).
var (
	ClientAddr  = ip.MakeAddr(10, 0, 0, 1)
	PrimaryAddr = ip.MakeAddr(10, 0, 0, 2)
	BackupAddr  = ip.MakeAddr(10, 0, 0, 3)
	LoggerAddr  = ip.MakeAddr(10, 0, 0, 4)
	WitnessAddr = ip.MakeAddr(10, 0, 0, 5)
	GatewayAddr = ip.MakeAddr(10, 0, 0, 254)
	ServiceAddr = ip.MakeAddr(10, 0, 0, 100)
)

// ServicePort is the well-known service port.
const ServicePort uint16 = 80

// ServiceGroup is the multicast Ethernet address ("multiEA") the service IP
// maps to, delivering client frames to both servers.
var ServiceGroup = eth.MakeMulticastAddr(0x100)

// ReverseGroup is a second multicast group used only by the pre-enhancement
// tap ablation: it carries primary→client traffic to both the client and
// the backup, recreating the old design in which the backup's NIC also
// absorbed the server's output stream (paper §3).
var ReverseGroup = eth.MakeMulticastAddr(0x200)

// Options configure testbed construction.
type Options struct {
	// Seed drives all randomness in the run.
	Seed int64
	// CustomScheduler, when non-nil, supplies the simulator's event queue
	// in place of the heap (it must be fresh — one factory call builds one
	// testbed). The exhaustive-interleaving explorer injects its
	// tie-break-forking wrapper here.
	CustomScheduler func() sim.Scheduler
	// LAN overrides the 100 Mbit/s default link configuration.
	LAN *netem.LinkConfig
	// SerialRate overrides the 115.2 kbit/s serial line rate.
	SerialRate int64
	// TapBothDirections enables the pre-enhancement topology in which
	// the backup also receives primary→client traffic (ablation).
	TapBothDirections bool
	// WithLogger adds the optional logger machine (§4.3's output-commit
	// fix) to the switch, tapping the service multicast group.
	WithLogger bool
	// WithWitness adds a third replica (the §4.2.2 "additional backup
	// server"): it shadows the application like the backup and gives the
	// primary a majority vote for FIN disagreements.
	WithWitness bool
	// TraceDetail enables per-segment and per-frame trace events plus
	// segment-journey/hb-round spans (trace.Recorder.SetDetail). Off by
	// default: soaks and benches pay nothing for them.
	TraceDetail bool
	// TelemetryWindow, when > 0, attaches a time-series sampler that
	// closes one window per period: every registered instrument plus the
	// derived scheduler/serial/heartbeat series. The sampler's ticker adds
	// events but consumes no randomness and preserves the relative order
	// of protocol events, so a run's virtual-time outcome is unchanged.
	TelemetryWindow time.Duration
}

// Testbed is the assembled Figure 2 network.
type Testbed struct {
	Sim     *sim.Simulator
	Tracer  *trace.Recorder
	Metrics *metrics.Registry
	Switch  *netem.Switch

	// Telemetry is the windowed time-series sampler; nil unless
	// Options.TelemetryWindow was set (a nil sampler is a no-op sink, so
	// call sites never need to branch).
	Telemetry *telemetry.Sampler

	Client  *cluster.Host
	Primary *cluster.Host
	Backup  *cluster.Host
	Gateway *cluster.Host

	// hosts and links index every machine and its switch link by host
	// name (Link); servers holds the application replica on each server
	// host (AttachServers, NewReplica), all of the echo kind or none;
	// reconnect makes StartClient's downloads reconnecting clients (a plain
	// plan that injects a fault); series are the progress series of the
	// clients StartClient started, which the tracer's anatomy reads the
	// client-visible stall from.
	hosts     map[string]*cluster.Host
	links     map[string]*netem.Link
	servers   map[string]app.Server
	echo      bool
	reconnect bool
	series    []*[]app.ProgressSample
	// holds counts the open windows of each windowed fault kind on each
	// machine (keyed by a Fault holding just Kind and Host); strikes are
	// the faults that took effect, in order, which the gray verdicts read.
	holds   map[Fault]int
	strikes []struck

	SerialPrimary *serial.Port
	SerialBackup  *serial.Port

	PrimaryPower *cluster.PowerController
	BackupPower  *cluster.PowerController

	// PrimaryNode and BackupNode are the nodes holding each role; a rejoin
	// swaps them.
	PrimaryNode *sttcp.Node
	BackupNode  *sttcp.Node
	// backupCfg is the config StartSTTCP gave the backup, which a rejoin
	// gives the rebooted machine's node (with the survivor as its peer).
	// rebooted and booted put a crashed host back under the run's
	// invariants: rebooted as the machine comes back (Run.rebooted), booted
	// once its software is in place, with the node a rejoin started on it
	// or nil (Run.booted).
	backupCfg sttcp.Config
	rebooted  func(*cluster.Host)
	booted    func(*cluster.Host, *sttcp.Node)

	// LoggerHost and Logger are present only with Options.WithLogger.
	LoggerHost *cluster.Host
	Logger     *sttcp.Logger

	// WitnessHost and WitnessNode are present only with
	// Options.WithWitness.
	WitnessHost *cluster.Host
	WitnessNode *sttcp.Node
}

// Build constructs the testbed of Figure 2.
func Build(opts Options) *Testbed {
	cfg := sim.Config{Seed: opts.Seed}
	if opts.CustomScheduler != nil {
		cfg.Custom = opts.CustomScheduler()
	}
	s := sim.NewWithConfig(cfg)
	tracer := trace.NewRecorder(s.Now)
	// The recorder rides the simulator's ambient context, so spans follow
	// causality across every scheduled hop (links, switch forwarding,
	// retransmission timers) without per-component plumbing.
	tracer.BindContext(s.Context, s.SetContext)
	tracer.SetDetail(opts.TraceDetail)
	sw := netem.NewSwitch(s, "switch", 5*time.Microsecond)

	lan := netem.DefaultLANConfig()
	if opts.LAN != nil {
		lan = *opts.LAN
	}

	reg := metrics.New(s.Now)
	tb := &Testbed{Sim: s, Tracer: tracer, Metrics: reg, Switch: sw,
		hosts: map[string]*cluster.Host{}, links: map[string]*netem.Link{}, holds: map[Fault]int{}}
	tracer.BindProgress(tb.bracket)
	host := func(name string, ethNum uint32, addr ip.Addr) *cluster.Host {
		tb.hosts[name] = cluster.New(s, cluster.HostConfig{
			Name:    name,
			EthNum:  ethNum,
			Addr:    addr,
			Tracer:  tracer,
			Metrics: reg,
		})
		return tb.hosts[name]
	}
	tb.Client = host("client", 1, ClientAddr)
	tb.Primary = host("primary", 2, PrimaryAddr)
	tb.Backup = host("backup", 3, BackupAddr)
	tb.Gateway = host("gateway", 254, GatewayAddr)

	// connect cables h to the switch; tap also subscribes its port and
	// NIC to the service's multicast group, so it receives every client
	// frame.
	connect := func(h *cluster.Host, tap bool) *netem.SwitchPort {
		l, p := netem.Connect(s, sw, h.NIC(), lan)
		l.SetMetrics(reg, h.Name()+"-switch")
		l.SetTrace(tracer, h.Name()+"-switch")
		tb.links[h.Name()] = l
		if tap {
			sw.JoinGroup(ServiceGroup, p)
			h.NIC().JoinGroup(ServiceGroup)
		}
		return p
	}
	clientPort := connect(tb.Client, false)
	connect(tb.Primary, true)
	backupPort := connect(tb.Backup, true)
	connect(tb.Gateway, false)

	// serviceIP → multiEA: static ARP on the client and the gateway
	// (Figure 2).
	tb.Client.Netstack().ARP().AddStatic(ServiceAddr, ServiceGroup)
	tb.Gateway.Netstack().ARP().AddStatic(ServiceAddr, ServiceGroup)

	if opts.TapBothDirections {
		// Old design: the servers send client-bound service traffic
		// to a multicast group whose members are the client and the
		// backup, so the backup's NIC also absorbs the
		// primary→client stream.
		tb.Primary.Netstack().ARP().AddStatic(ClientAddr, ReverseGroup)
		tb.Backup.Netstack().ARP().AddStatic(ClientAddr, ReverseGroup)
		sw.JoinGroup(ReverseGroup, clientPort)
		sw.JoinGroup(ReverseGroup, backupPort)
		tb.Client.NIC().JoinGroup(ReverseGroup)
		tb.Backup.NIC().JoinGroup(ReverseGroup)
		tb.Backup.NIC().SetPromiscuous(true)
	}

	if opts.WithLogger {
		tb.LoggerHost = host("logger", 9, LoggerAddr)
		connect(tb.LoggerHost, true)
	}
	if opts.WithWitness {
		tb.WitnessHost = host("witness", 5, WitnessAddr)
		connect(tb.WitnessHost, true)
	}

	// Null-modem serial cable between the servers.
	rate := opts.SerialRate
	if rate == 0 {
		rate = serial.DefaultBitsPerSecond
	}
	tb.SerialPrimary, tb.SerialBackup = serial.NewPair(s, "primary/ttyS0", "backup/ttyS0", rate)
	tb.Primary.AttachSerial(tb.SerialPrimary)
	tb.Backup.AttachSerial(tb.SerialBackup)

	// Out-of-band power control (STONITH).
	tb.PrimaryPower = cluster.NewPowerController(tb.Primary)
	tb.BackupPower = cluster.NewPowerController(tb.Backup)

	if opts.TelemetryWindow > 0 {
		tb.Telemetry = telemetry.NewSampler(s, reg, opts.TelemetryWindow)
		tb.wireTelemetryProbes(rate)
		tb.Telemetry.Start()
	}

	return tb
}

// wireTelemetryProbes registers the derived series the run report's
// dashboard is built around: scheduler queue depth and event throughput,
// and the utilization of the serial heartbeat link in each direction.
func (tb *Testbed) wireTelemetryProbes(serialRate int64) {
	s, sp := tb.Sim, tb.Telemetry
	sp.AddProbe("sched.pending", "events", func() float64 {
		return float64(s.Pending())
	})
	var lastFired uint64
	sp.AddProbe("sched.fired", "events/window", func() float64 {
		f := s.Fired()
		d := f - lastFired
		lastFired = f
		return float64(d)
	})
	// Serial-link utilization: TX bytes this window × 10 bits/byte over
	// the line capacity in one window.
	windowBits := float64(serialRate) * sp.Window().Seconds()
	serialUtil := func(p *serial.Port) func() float64 {
		var last int64
		return func() float64 {
			d := p.TxBytes - last
			last = p.TxBytes
			return float64(d*serial.BitsPerByte) / windowBits
		}
	}
	sp.AddProbe("serial.primary.utilization", "fraction", serialUtil(tb.SerialPrimary))
	sp.AddProbe("serial.backup.utilization", "fraction", serialUtil(tb.SerialBackup))
}

// NodeConfig returns the ST-TCP configuration for one of the testbed's
// servers with the given heartbeat period (0 selects the 200 ms default).
func (tb *Testbed) NodeConfig(peer ip.Addr, hbPeriod time.Duration) sttcp.Config {
	return sttcp.Config{
		ServiceAddr: ServiceAddr,
		ServicePort: ServicePort,
		PeerAddr:    peer,
		GatewayAddr: GatewayAddr,
		HBPeriod:    hbPeriod,
	}
}

// StartSTTCP brings up the primary and backup ST-TCP nodes. mutate, if
// non-nil, adjusts each node's config before it is applied (both nodes get
// the same mutation).
func (tb *Testbed) StartSTTCP(hbPeriod time.Duration, mutate func(*sttcp.Config)) error {
	pCfg := tb.NodeConfig(BackupAddr, hbPeriod)
	bCfg := tb.NodeConfig(PrimaryAddr, hbPeriod)
	if tb.LoggerHost != nil {
		pCfg.LoggerAddr = LoggerAddr
		bCfg.LoggerAddr = LoggerAddr
	}
	if tb.WitnessHost != nil {
		pCfg.WitnessAddr = WitnessAddr
	}
	if mutate != nil {
		mutate(&pCfg)
		mutate(&bCfg)
	}
	if tb.LoggerHost != nil {
		tb.Logger = sttcp.NewLogger(tb.LoggerHost, bCfg)
		if err := tb.Logger.Start(); err != nil {
			return fmt.Errorf("experiment: start logger: %w", err)
		}
	}
	var err error
	tb.PrimaryNode, err = sttcp.NewNode(tb.Primary, sttcp.RolePrimary, pCfg, tb.BackupPower)
	if err != nil {
		return fmt.Errorf("experiment: primary node: %w", err)
	}
	tb.BackupNode, err = sttcp.NewNode(tb.Backup, sttcp.RoleBackup, bCfg, tb.PrimaryPower)
	if err != nil {
		return fmt.Errorf("experiment: backup node: %w", err)
	}
	if err := tb.PrimaryNode.Start(); err != nil {
		return fmt.Errorf("experiment: start primary: %w", err)
	}
	if err := tb.BackupNode.Start(); err != nil {
		return fmt.Errorf("experiment: start backup: %w", err)
	}
	tb.backupCfg = bCfg
	if tb.WitnessHost != nil {
		wCfg := tb.NodeConfig(PrimaryAddr, hbPeriod)
		if mutate != nil {
			mutate(&wCfg)
		}
		wCfg.Witness = true
		tb.WitnessNode, err = sttcp.NewNode(tb.WitnessHost, sttcp.RoleBackup, wCfg, nil)
		if err != nil {
			return fmt.Errorf("experiment: witness node: %w", err)
		}
		if err := tb.WitnessNode.Start(); err != nil {
			return fmt.Errorf("experiment: start witness: %w", err)
		}
	}
	return nil
}

// Run advances the simulation by d.
func (tb *Testbed) Run(d time.Duration) error { return tb.Sim.Run(d) }

// Serving is the node that currently owns the client connections: the
// backup once it has taken over, the primary otherwise.
func (tb *Testbed) Serving() *sttcp.Node {
	if tb.BackupNode.State() == sttcp.StateTakenOver {
		return tb.BackupNode
	}
	return tb.PrimaryNode
}

// Standby is the active backup of an active primary, nil while fault
// tolerance is lost.
func (tb *Testbed) Standby() *sttcp.Node {
	if tb.BackupNode.State() == sttcp.StateActive && tb.PrimaryNode.State() == sttcp.StateActive {
		return tb.BackupNode
	}
	return nil
}

// Resolve names the machine a fault's host means now: a role — serving,
// the node that owns the client connections (Serving), or standby, the
// active backup (Standby) — or a machine by name. It is nil for a standby
// while fault tolerance is lost, and for a host the topology lacks. The
// testbed resolves a fault's host once, as it strikes; chaos's guards read
// the same answer.
func (tb *Testbed) Resolve(host string) *cluster.Host {
	switch host {
	case "serving":
		return tb.Serving().Host()
	case "standby":
		if n := tb.Standby(); n != nil {
			return n.Host()
		}
		return nil
	}
	return tb.hosts[host]
}

// Link returns the Ethernet link between the named host and the switch
// (nil for a host this topology does not have). The host is the link's A
// side, the switch port its B side.
func (tb *Testbed) Link(host string) *netem.Link { return tb.links[host] }

// AttachServers installs one application replica per ST-TCP node — echo
// servers when echo is set, data servers otherwise — on the primary, the
// backup, and the witness when the topology has one. Without ST-TCP nodes
// (a plain plan) the primary and the backup each run one on a plain
// listener at their own address, and the primary also answers on
// ServiceAddr through an alias.
func (tb *Testbed) AttachServers(echo bool) {
	tb.echo, tb.servers = echo, map[string]app.Server{}
	if tb.PrimaryNode == nil {
		tb.Primary.Netstack().AddAlias(ServiceAddr)
		for _, h := range []*cluster.Host{tb.Primary, tb.Backup} {
			// The zero address listens on every address the host has.
			l, err := h.TCP().Listen(ip.Addr{}, ServicePort)
			if err != nil {
				panic("experiment: AttachServers called twice on a plain testbed")
			}
			l.OnEstablished = tb.NewReplica(h.Name() + "/app")
		}
		return
	}
	for _, n := range []*sttcp.Node{tb.PrimaryNode, tb.BackupNode, tb.WitnessNode} {
		if n != nil {
			n.OnAccept = tb.NewReplica(n.Host().Name() + "/app")
		}
	}
}

// NewReplica builds the application replica "<host>/app" of the kind
// AttachServers chose, bound to the host's CPU clock (so a starve fault
// slows the application, not just a number on the host), records it as
// Server(host) and returns its accept hook.
func (tb *Testbed) NewReplica(name string) func(*tcp.Conn) {
	host := strings.TrimSuffix(name, "/app")
	srv := app.NewServer(tb.echo, name, tb.Tracer, tb.hosts[host].CPU())
	tb.servers[host] = srv
	return srv.Accept
}

// Server returns the application replica currently installed on the named
// host, nil if it runs none.
func (tb *Testbed) Server(host string) app.Server { return tb.servers[host] }

// Workload describes one client conversation against the replicated
// service: a verified download of Bytes, or — with Echo — Rounds ping-pong
// exchanges of MsgSize bytes, Gap apart. At is when a plan starts it,
// counted from the start of the run (StartClient starts it now).
type Workload struct {
	At      time.Duration
	Echo    bool
	Bytes   int64
	Rounds  int
	MsgSize int
	Gap     time.Duration
}

// StartClient dials the service from the client host and starts w under
// the given trace name. It is the one place a workload client is built:
// service address, tracer and telemetry track all come from the testbed.
// On a plain testbed that will see a fault, a download is plain TCP's
// answer to it, an app.ReconnectClient: the primary's own address first,
// then after 3 s without data the backup's, resuming at the byte it broke.
func (tb *Testbed) StartClient(name string, w Workload) (app.Client, error) {
	if tb.servers != nil && w.Echo != tb.echo {
		return nil, fmt.Errorf("experiment: %s: cannot mix download and echo workloads (one service protocol per testbed)", name)
	}
	if tb.reconnect {
		if w.Echo {
			return nil, fmt.Errorf("experiment: %s: plain TCP survives a server fault only by resuming a download", name)
		}
		cl := app.NewReconnectClient(name, tb.Client.TCP(), w.Bytes, 3*time.Second, tb.Tracer)
		cl.AddServer(PrimaryAddr, ServicePort)
		cl.AddServer(BackupAddr, ServicePort)
		return cl, cl.Start()
	}
	if w.Echo {
		cl := app.NewEchoClient(name, tb.Client.TCP(), ServiceAddr, ServicePort, w.Rounds, w.MsgSize, tb.Tracer)
		cl.Gap, cl.Telemetry = w.Gap, tb.Telemetry.NewClientTrack()
		tb.series = append(tb.series, &cl.Samples)
		return cl, cl.Start()
	}
	cl := app.NewStreamClient(app.ClientConfig{
		Name: name, Stack: tb.Client.TCP(),
		Service: ServiceAddr, Port: ServicePort,
		Request: w.Bytes, Tracer: tb.Tracer,
		Telemetry: tb.Telemetry.NewClientTrack(),
	})
	tb.series = append(tb.series, &cl.Samples)
	return cl, cl.Start()
}

// bracket is the tracer's progress binding: over every client started so
// far, the last delivery at or before t and the first one after it.
func (tb *Testbed) bracket(t time.Time) (before, after time.Time) {
	for _, s := range tb.series {
		b, a := app.Bracket(*s, t)
		if b.After(before) {
			before = b
		}
		if !a.IsZero() && (after.IsZero() || a.Before(after)) {
			after = a
		}
	}
	return before, after
}

// FaultKind names one physical act. The vocabulary is the only place
// outside the substrate packages where a fault is performed: a plan arms
// its faults up front, chaos arms each one as it fires.
type FaultKind string

// The fault vocabulary. The kinds from FaultLoss down are windowed like
// FaultDrop and FaultStarve: they hold for Dur, then restore nominal.
const (
	FaultCrash           FaultKind = "crash"            // HW/OS crash of Host
	FaultNICFail         FaultKind = "nicfail"          // Host's NIC dies
	FaultAppCrashSilent  FaultKind = "appcrash-silent"  // Host's application dies, socket stays open (§4.2.1)
	FaultAppCrashCleanup FaultKind = "appcrash-cleanup" // Host's application dies, the OS closes its sockets (§4.2.2)
	FaultDrop            FaultKind = "drop"             // every frame toward Host is dropped for Dur
	FaultStarve          FaultKind = "starve"           // Host's CPU runs Scale times slower for Dur
	FaultSerialCut       FaultKind = "serialcut"        // the null-modem cable is cut (both ends)
	FaultReboot          FaultKind = "reboot"           // a crashed Host boots with fresh software
	FaultRejoin          FaultKind = "rejoin"           // the failed primary's machine reboots and rejoins as the survivor's backup
	FaultLoss            FaultKind = "loss"             // Host's link loses each frame with probability Rate
	FaultDelay           FaultKind = "delay"            // Host's link adds Delay of one-way latency
	FaultTxCut           FaultKind = "txcut"            // Host's transmit direction is cut; it keeps receiving
	FaultCorrupt         FaultKind = "corrupt"          // Host's link flips a bit per frame with probability Rate
	FaultSerialCorrupt   FaultKind = "serialcorrupt"    // both serial transmitters flip a bit per message with probability Rate
	FaultNICFlap         FaultKind = "nicflap"          // Host's link goes down and up again every Period
	FaultSerialFlap      FaultKind = "serialflap"       // the serial cable goes down and up again every Period
	FaultClockSkew       FaultKind = "clockskew"        // Host's timers run at Scale times the nominal rate
)

// Fault is one injection: Kind happens to Host (the serial kinds and
// rejoin name none) at virtual time At since the start of the run. Host is
// a machine or a role, serving or standby, which names the machine that
// holds the role when the fault strikes (Resolve). Dur bounds the
// windowed kinds; Scale, Rate, Delay and Period are each the one parameter
// of the kinds that name them above.
type Fault struct {
	At     time.Duration
	Kind   FaultKind
	Host   string
	Dur    time.Duration
	Scale  float64
	Rate   float64
	Delay  time.Duration
	Period time.Duration
}

// vet is the one validator: a fault that would silently do nothing, or
// panic inside the event loop, makes every later observation meaningless,
// so it is refused before anything happens.
func (tb *Testbed) vet(f Fault) error {
	need := func(ok bool, what string, got any) error {
		if ok {
			return nil
		}
		return fmt.Errorf("%s: %s, got %v", f.Kind, what, got)
	}
	windowed, cable := true, false
	var param error
	switch f.Kind {
	case FaultCrash, FaultNICFail, FaultReboot, FaultAppCrashSilent, FaultAppCrashCleanup:
		windowed = false
	case FaultSerialCut, FaultRejoin:
		windowed, cable = false, true
	case FaultDrop, FaultTxCut:
	case FaultStarve:
		param = need(f.Scale >= 1, "scale must be at least 1 (less would speed the host up)", f.Scale)
	case FaultClockSkew:
		param = need(f.Scale > 0, "scale must be positive", f.Scale)
	case FaultLoss, FaultCorrupt, FaultSerialCorrupt:
		cable = f.Kind == FaultSerialCorrupt
		param = need(f.Rate > 0 && f.Rate <= 1, "rate must be in (0, 1]", f.Rate)
	case FaultDelay:
		param = need(f.Delay > 0, "delay must be positive", f.Delay)
	case FaultNICFlap, FaultSerialFlap:
		cable = f.Kind == FaultSerialFlap
		param = need(f.Period >= 2, "period must span a down and an up half", f.Period)
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	// A role resolves to a server machine as the fault strikes.
	role := f.Host == "serving" || f.Host == "standby"
	switch {
	case role && tb.PrimaryNode == nil:
		return fmt.Errorf("%s: %s names a role, and a plain testbed runs no ST-TCP node", f.Kind, f.Host)
	case !cable && !role && tb.hosts[f.Host] == nil:
		return fmt.Errorf("%s: host %q not present in this topology", f.Kind, f.Host)
	case f.Kind == FaultCrash && tb.hosts[f.Host] == tb.Client:
		return fmt.Errorf("%s: the client's workload would go on driving its dead host", f.Kind)
	case (f.Kind == FaultAppCrashSilent || f.Kind == FaultAppCrashCleanup) && !role && tb.servers[f.Host] == nil:
		return fmt.Errorf("%s: host %q runs no server application", f.Kind, f.Host)
	case windowed && f.Dur <= 0:
		return need(false, "duration must be positive", f.Dur)
	}
	return param
}

// Arm validates f against this topology and returns the act that performs
// it; nothing has happened until strike is called (At is the caller's
// business). A rejoin can fail as it strikes, when there is no survivor
// to rejoin by then; so can a reboot of a host that is up, an
// application crash on a host that has crashed or rebooted since (its
// replica died with the machine), and a fault on the standby while there
// is none.
func (tb *Testbed) Arm(f Fault) (strike func() error, err error) {
	if err := tb.vet(f); err != nil {
		return nil, err
	}
	return func() error { return tb.strike(f) }, nil
}

// strike resolves a vetted fault's host to a machine, performs the fault
// and records it in strikes; a corrupting window also counts the traffic
// it exposes to its rate, which gray-evidence reads.
func (tb *Testbed) strike(f Fault) error {
	if f.Host != "" {
		h := tb.Resolve(f.Host)
		if h == nil {
			return fmt.Errorf("no %s node to strike", f.Host)
		}
		f.Host = h.Name()
	}
	if err := tb.inject(f); err != nil {
		return err
	}
	s := struck{Fault: f}
	switch f.Kind {
	case FaultCorrupt:
		link := tb.links[f.Host]
		s.exposed = tb.exposure(f.Dur, func() int64 { return link.Delivered })
	case FaultSerialCorrupt:
		// A message counts once it reached a receiver's CRC check: a
		// flapped-down port drops in flight without checking it.
		a, b := tb.SerialPrimary, tb.SerialBackup
		s.exposed = tb.exposure(f.Dur, func() int64 { return a.RxMessages + a.CRCErrors + b.RxMessages + b.CRCErrors })
	}
	tb.strikes = append(tb.strikes, s)
	return nil
}

// exposure reads a monotonic traffic counter from now until a window of d
// closes, where it freezes so later traffic does not inflate it.
func (tb *Testbed) exposure(d time.Duration, count func() int64) func() int64 {
	start, end, closed := count(), int64(0), false
	tb.Sim.Schedule(d, func() { end, closed = count(), true })
	return func() int64 {
		if closed {
			return end - start
		}
		return count() - start
	}
}

// inject performs a vetted fault on the machine it names, now. Hosts and
// links are fixed for the life of the testbed; the application replica is
// looked up here because a rejoin may have replaced it since the fault was
// armed.
func (tb *Testbed) inject(f Fault) error {
	host, link := tb.hosts[f.Host], tb.links[f.Host]
	cableDown := func(down bool) {
		tb.SerialPrimary.SetDown(down)
		tb.SerialBackup.SetDown(down)
	}
	switch f.Kind {
	case FaultCrash:
		host.CrashHW()
	case FaultNICFail:
		host.FailNIC()
	case FaultReboot:
		if !host.Crashed() {
			return fmt.Errorf("host %q is up; only a crashed host reboots", f.Host)
		}
		tb.reboot(host)
		if tb.booted != nil {
			tb.booted(host, nil)
		}
	case FaultRejoin:
		return tb.rejoin()
	case FaultAppCrashSilent, FaultAppCrashCleanup:
		srv := tb.servers[f.Host]
		switch {
		case host.Crashed():
			return fmt.Errorf("host %q is down, its application with it", f.Host)
		case srv == nil:
			return fmt.Errorf("host %q runs no server application since its reboot", f.Host)
		case f.Kind == FaultAppCrashSilent:
			srv.CrashSilent()
		default:
			srv.CrashCleanup(false)
		}
	case FaultSerialCut:
		cableDown(true)
	case FaultDrop:
		tb.Tracer.Emit(trace.KindLinkDrop, f.Host+"/eth0", "dropping inbound frames for %v", f.Dur)
		link.DropFromBFor(f.Dur) // B side = switch port; the link expires the window itself
	case FaultStarve:
		tb.Tracer.Emit(trace.KindGeneric, f.Host, "CPU starved x%g for %v (slow-not-dead)", f.Scale, f.Dur)
		hold(tb, f, f.Scale, 1, host.SetCPUScale)
	case FaultClockSkew:
		hold(tb, f, f.Scale, 1, host.SetTimerScale)
	case FaultLoss:
		hold(tb, f, f.Rate, 0, link.SetLossRate)
	case FaultDelay:
		hold(tb, f, f.Delay, 0, link.SetExtraDelay)
	case FaultTxCut:
		hold(tb, f, true, false, link.SetCutFromA) // A side = host
	case FaultCorrupt:
		hold(tb, f, f.Rate, 0, link.SetCorruptRate)
	case FaultSerialCorrupt:
		hold(tb, f, f.Rate, 0, func(p float64) {
			tb.SerialPrimary.SetCorruptRate(p)
			tb.SerialBackup.SetCorruptRate(p)
		})
	case FaultNICFlap:
		tb.flap(f, func(down bool) {
			link.SetCutFromA(down)
			link.SetCutFromB(down)
		})
	case FaultSerialFlap:
		tb.flap(f, cableDown)
	}
	return nil
}

// rejoin reboots the machine of the failed primary and rejoins it as the
// new backup of the survivor, which must have taken over; the nodes swap
// roles. The rejoined node runs the config StartSTTCP gave the backup, and
// the repair also replaces a cut serial cable (Reboot resets only the dead
// side's port).
func (tb *Testbed) rejoin() error {
	dead, survivor := tb.PrimaryNode.Host(), tb.BackupNode
	if survivor.State() != sttcp.StateTakenOver {
		return fmt.Errorf("experiment: survivor state %v, want taken-over", survivor.State())
	}
	tb.reboot(dead)
	if err := survivor.EnableReplication(addrOf(dead), cluster.NewPowerController(dead)); err != nil {
		return fmt.Errorf("experiment: enable replication: %w", err)
	}
	cfg := tb.backupCfg
	cfg.PeerAddr = addrOf(survivor.Host())
	fresh, err := sttcp.NewNode(dead, sttcp.RoleBackup, cfg, cluster.NewPowerController(survivor.Host()))
	if err != nil {
		return fmt.Errorf("experiment: new backup node: %w", err)
	}
	fresh.OnAccept = tb.NewReplica(dead.Name() + "/app")
	if err := fresh.Start(); err != nil {
		return fmt.Errorf("experiment: start rejoined backup: %w", err)
	}
	tb.PrimaryNode, tb.BackupNode = survivor, fresh
	tb.SerialPrimary.SetDown(false)
	tb.SerialBackup.SetDown(false)
	if tb.booted != nil {
		tb.booted(dead, fresh)
	}
	return nil
}

// reboot boots a crashed host's fresh stacks. Its application replica died
// with the machine; only a rejoin installs a new one.
func (tb *Testbed) reboot(h *cluster.Host) {
	h.Reboot()
	delete(tb.servers, h.Name())
	if tb.rebooted != nil {
		tb.rebooted(h)
	}
}

func addrOf(h *cluster.Host) ip.Addr { return h.Netstack().Addr() }

// hold sets a windowed fault's off-nominal value for f.Dur, then restores
// nominal on the very machine it set, f.Host as strike resolved it: by
// then a failover may have moved the role to another machine. Windows of
// one kind that overlap on one machine end together, when the last of
// them does — an earlier window's end must not cancel a later one (the
// latest value wins meanwhile).
func hold[T any](tb *Testbed, f Fault, during, nominal T, set func(T)) {
	key := Fault{Kind: f.Kind, Host: f.Host}
	tb.holds[key]++
	set(during)
	tb.Sim.Schedule(f.Dur, func() {
		if tb.holds[key]--; tb.holds[key] == 0 {
			set(nominal)
		}
	})
}

// flap takes a link down and up, half of f.Period each, starting down, and
// leaves it up when f.Dur is over.
func (tb *Testbed) flap(f Fault, set func(down bool)) {
	down := true
	set(down)
	t := sim.NewTicker(tb.Sim, f.Period/2, func() {
		down = !down
		set(down)
	})
	tb.Sim.Schedule(f.Dur, func() {
		t.Stop()
		set(false)
	})
}
