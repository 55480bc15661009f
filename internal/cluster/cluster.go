// Package cluster models the machines of the testbed: a Host bundles a NIC,
// an IP stack, a TCP stack, and an optional serial port, and supports the
// fault injections the paper's demonstrations use — HW/OS crash (the host
// goes silent on every interface and its software stops) and remote
// power-off (the STONITH action the backup performs before taking over,
// paper §2).
package cluster

import (
	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/netstack"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Host is one simulated machine.
type Host struct {
	sim     *sim.Simulator
	name    string
	tracer  *trace.Recorder
	metrics *metrics.Registry

	addr ip.Addr

	nic    *netem.NIC
	ns     *netstack.Stack
	tcp    *tcp.Stack
	serial *serial.Port

	// The two clocks own every timer the host's software arms, so a
	// crash stops them all. timerClock models the machine's oscillator:
	// the kernel and protocol timers arm through it, and periodic tickers
	// (heartbeats, detectors) stretch by its rate, so skewing it skews
	// them. cpuClock models scheduler pressure: application servers
	// stretch their processing quanta by it, so a starved host answers
	// slowly while its kernel-level timers (and thus heartbeats) still
	// fire on time — the paper-adjacent "slow-not-dead" gray failure.
	timerClock *sim.Clock
	cpuClock   *sim.Clock

	crashed bool
	onCrash []func()
	reboots int
}

// HostConfig describes one machine. Name and Addr are required; the
// rest default sensibly: EthNum seeds the MAC address (derive it from
// the address when zero is fine for single-host tests, but testbeds
// with several hosts must assign distinct values), Tracer and Metrics may
// be nil. The TCP stack runs with default options.
type HostConfig struct {
	// Name labels the host in traces and metric component names.
	Name string
	// EthNum seeds a stable MAC address for the host's NIC.
	EthNum uint32
	// Addr is the host's own IP address.
	Addr ip.Addr
	// Tracer is the shared event recorder (nil for none).
	Tracer *trace.Recorder
	// Metrics receives the host's instruments (nil for none); it is
	// threaded through the TCP stack and survives reboots.
	Metrics *metrics.Registry
}

// New builds a machine with one NIC from cfg.
func New(s *sim.Simulator, cfg HostConfig) *Host {
	h := &Host{
		sim:        s,
		name:       cfg.Name,
		tracer:     cfg.Tracer,
		metrics:    cfg.Metrics,
		addr:       cfg.Addr,
		nic:        netem.NewNIC(s, cfg.Name+"/eth0", eth.MakeAddr(cfg.EthNum)),
		timerClock: sim.NewClock(s),
		cpuClock:   sim.NewClock(s),
	}
	h.boot()
	return h
}

// boot starts the host's software: a clean IP stack and TCP layer on the
// timer clock.
func (h *Host) boot() {
	h.ns = netstack.New(h.timerClock, h.name, h.nic, h.addr)
	h.tcp = tcp.NewStack(h.timerClock, h.ns, h.name, tcp.Options{}, h.tracer, h.metrics)
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Sim returns the simulator.
func (h *Host) Sim() *sim.Simulator { return h.sim }

// NIC returns the host's Ethernet interface.
func (h *Host) NIC() *netem.NIC { return h.nic }

// Netstack returns the host's IP stack.
func (h *Host) Netstack() *netstack.Stack { return h.ns }

// TCP returns the host's TCP stack.
func (h *Host) TCP() *tcp.Stack { return h.tcp }

// Tracer returns the shared trace recorder.
func (h *Host) Tracer() *trace.Recorder { return h.tracer }

// Metrics returns the host's metrics registry (possibly nil).
func (h *Host) Metrics() *metrics.Registry { return h.metrics }

// Clock returns the host's timer clock. Every timer the host's protocol
// software arms belongs to it, so a crash stops them; periodic ones
// (heartbeats, detectors) tick through its NewTicker so an injected
// clock-rate skew reaches them. A reboot replaces it.
func (h *Host) Clock() *sim.Clock { return h.timerClock }

// CPU returns the host's CPU clock. Application servers arm on it and
// stretch their processing time by it, so CPU starvation slows responses
// without touching kernel timers. A reboot replaces it.
func (h *Host) CPU() *sim.Clock { return h.cpuClock }

// SetTimerScale skews the host's timer rate: 1 is nominal, 1.05 makes
// every periodic timer fire 5% late. This is the clock-rate-skew gray
// fault — heartbeats stay alive but drift against the peer's timeline.
func (h *Host) SetTimerScale(r float64) { h.timerClock.SetRate(r) }

// SetCPUScale starves (or restores) the host's CPU: a rate of 20 makes
// application processing take 20x longer while timers — and thus
// heartbeats — run on schedule. This is the slow-not-dead gray fault.
func (h *Host) SetCPUScale(r float64) { h.cpuClock.SetRate(r) }

// AttachSerial associates one end of a null-modem pair with the host.
func (h *Host) AttachSerial(p *serial.Port) { h.serial = p }

// Serial returns the host's serial port, if any.
func (h *Host) Serial() *serial.Port { return h.serial }

// ConnectToSwitch wires the host's NIC to sw and returns the link for
// fault injection.
func (h *Host) ConnectToSwitch(sw *netem.Switch, cfg netem.LinkConfig) *netem.Link {
	l, _ := netem.Connect(h.sim, sw, h.nic, cfg)
	return l
}

// OnCrash registers a callback to run, in registration order, when the
// host crashes — after its interfaces fail and before its clocks stop.
// Protocol layers register their shutdown here; a reboot forgets them.
func (h *Host) OnCrash(fn func()) { h.onCrash = append(h.onCrash, fn) }

// Crashed reports whether the host has crashed.
func (h *Host) Crashed() bool { return h.crashed }

// CrashHW simulates a hardware or OS crash: the NIC goes silent, the
// serial port drops, registered crash hooks run, and both clocks stop, so
// no timer the host's software armed fires again. This is Table 1 row 1's
// injected failure.
func (h *Host) CrashHW() {
	h.crash(trace.KindHostCrash, "HW/OS crash")
}

// PowerOff is CrashHW with a power-control trace; it is what the peer's
// STONITH action invokes.
func (h *Host) PowerOff() {
	h.crash(trace.KindPowerOff, "powered off by peer")
}

func (h *Host) crash(kind trace.Kind, why string) {
	if h.crashed {
		return
	}
	h.crashed = true
	h.tracer.Emit(kind, h.name, "%s", why)
	h.nic.Fail()
	if h.serial != nil {
		h.serial.SetDown(true)
	}
	for _, fn := range h.onCrash {
		fn()
	}
	h.timerClock.Stop()
	h.cpuClock.Stop()
}

// FailNIC injects a NIC failure (Demo 5): the Ethernet interface goes
// silent while the machine, its serial port, and its software keep
// running.
func (h *Host) FailNIC() {
	h.tracer.Emit(trace.KindNICFail, h.name, "NIC failed")
	h.nic.Fail()
}

// Reboot brings a crashed machine back with freshly initialised software:
// new clocks at the old rates (the oscillator and the CPU are hardware),
// and a clean IP stack and TCP layer on the same NIC, addresses and serial
// wiring. All pre-crash connection state is gone, exactly as after a real
// reboot; protocol layers must be re-created by the caller, on the new
// clocks. It does nothing on a live host.
func (h *Host) Reboot() {
	if !h.crashed {
		return
	}
	h.crashed = false
	h.onCrash = nil
	h.reboots++
	h.nic.Recover()
	h.timerClock = restart(h.timerClock)
	h.cpuClock = restart(h.cpuClock)
	h.boot()
	if h.serial != nil {
		h.serial.SetDown(false)
		h.serial.SetHandler(nil)
	}
	h.tracer.Emit(trace.KindGeneric, h.name, "rebooted (boot #%d)", h.reboots+1)
}

// restart returns a running clock at a stopped one's rate.
func restart(old *sim.Clock) *sim.Clock {
	c := sim.NewClock(old.Sim())
	c.SetRate(old.Rate())
	return c
}

// PowerController exposes the out-of-band power channel to a target
// machine, modelling the remote power switch of the testbed.
type PowerController struct {
	target *Host
}

// NewPowerController returns a controller for target.
func NewPowerController(target *Host) *PowerController {
	return &PowerController{target: target}
}

// Off powers the target down.
func (p *PowerController) Off() { p.target.PowerOff() }

// Target returns the controlled host.
func (p *PowerController) Target() *Host { return p.target }
