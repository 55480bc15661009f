package experiment

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// startedTestbed is the default Figure 2 testbed with ST-TCP up and data
// servers attached.
func startedTestbed(t *testing.T, o Options) *Testbed {
	t.Helper()
	tb := Build(o)
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start sttcp: %v", err)
	}
	tb.AttachServers(false)
	return tb
}

// TestTable1Spec pins the shape of the Table 1 table: ten rows in enum
// order with unique names, each naming a fault the default testbed accepts.
func TestTable1Spec(t *testing.T) {
	if len(table1) != 10 || len(Scenarios) != 10 {
		t.Fatalf("Table 1 has %d rows and %d scenarios, want 10 and 10", len(table1), len(Scenarios))
	}
	tb := startedTestbed(t, Options{Seed: 1})
	names := map[string]bool{}
	for i, row := range table1 {
		if row.Scenario != Scenario(i+1) || Scenarios[i] != row.Scenario {
			t.Errorf("row %d is scenario %d: the table must follow the enum", i, row.Scenario)
		}
		if names[row.name] || row.Scenario.String() != row.name {
			t.Errorf("row %d: name %q duplicated or not what String() returns (%q)", i, row.name, row.Scenario)
		}
		names[row.name] = true
		if _, err := tb.Arm(row.Fault); err != nil {
			t.Errorf("%v: fault does not validate: %v", row.Scenario, err)
		}
		if row.expect != sttcp.StateTakenOver && row.expect != sttcp.StateNonFT && row.expect != sttcp.StateActive {
			t.Errorf("%v expects %v, which is no recovery action of Table 1", row.Scenario, row.expect)
		}
	}
	if got := Scenario(0).String() + Scenario(11).String(); got != "Scenario(0)Scenario(11)" {
		t.Errorf("out-of-range scenarios print as %q", got)
	}
}

// TestScheduleValidation drives every refusal Testbed.Arm has: a fault
// that cannot take effect must fail loudly instead of silently doing
// nothing.
func TestScheduleValidation(t *testing.T) {
	tb := startedTestbed(t, Options{Seed: 1})
	for _, tc := range []struct {
		name string
		f    Fault
		want string // "" = accepted
	}{
		{"unknown host", Fault{Kind: FaultCrash, Host: "router"}, "not present in this topology"},
		{"absent witness", Fault{Kind: FaultAppCrashSilent, Host: "witness"}, "not present in this topology"},
		{"absent logger link", Fault{Kind: FaultDrop, Host: "logger", Dur: time.Second}, "not present in this topology"},
		{"appcrash on gateway", Fault{Kind: FaultAppCrashSilent, Host: "gateway"}, "runs no server application"},
		{"appcrash on client", Fault{Kind: FaultAppCrashCleanup, Host: "client"}, "runs no server application"},
		{"drop without duration", Fault{Kind: FaultDrop, Host: "backup"}, "duration must be positive"},
		{"drop with negative duration", Fault{Kind: FaultDrop, Host: "client", Dur: -time.Second}, "duration must be positive"},
		{"starve without duration", Fault{Kind: FaultStarve, Host: "primary", Scale: 10}, "duration must be positive"},
		// Used to be accepted, then panic in the event loop at strike time.
		{"starve without scale", Fault{Kind: FaultStarve, Host: "primary", Dur: time.Second}, "scale must be at least 1"},
		{"starve", Fault{Kind: FaultStarve, Host: "primary", Dur: time.Second, Scale: 10}, ""},
		{"loss rate above 1", Fault{Kind: FaultLoss, Host: "client", Dur: time.Second, Rate: 1.5}, "rate must be in (0, 1]"},
		{"loss", Fault{Kind: FaultLoss, Host: "client", Dur: time.Second, Rate: 1}, ""},
		{"delay without delay", Fault{Kind: FaultDelay, Host: "backup", Dur: time.Second}, "delay must be positive"},
		{"delay", Fault{Kind: FaultDelay, Host: "backup", Dur: time.Second, Delay: time.Millisecond}, ""},
		{"txcut without duration", Fault{Kind: FaultTxCut, Host: "primary"}, "duration must be positive"},
		{"txcut", Fault{Kind: FaultTxCut, Host: "primary", Dur: time.Second}, ""},
		{"corrupt without rate", Fault{Kind: FaultCorrupt, Host: "primary", Dur: time.Second}, "rate must be in (0, 1]"},
		{"corrupt", Fault{Kind: FaultCorrupt, Host: "primary", Dur: time.Second, Rate: 0.05}, ""},
		{"serialcorrupt with negative rate", Fault{Kind: FaultSerialCorrupt, Dur: time.Second, Rate: -0.1}, "rate must be in (0, 1]"},
		{"serialcorrupt needs no host", Fault{Kind: FaultSerialCorrupt, Dur: time.Second, Rate: 0.3}, ""},
		{"nicflap without period", Fault{Kind: FaultNICFlap, Host: "primary", Dur: time.Second}, "period must span"},
		{"nicflap on an unknown host", Fault{Kind: FaultNICFlap, Host: "router", Dur: time.Second, Period: time.Millisecond}, "not present in this topology"},
		{"nicflap", Fault{Kind: FaultNICFlap, Host: "primary", Dur: time.Second, Period: 100 * time.Millisecond}, ""},
		{"serialflap with a half-less period", Fault{Kind: FaultSerialFlap, Dur: time.Second, Period: 1}, "period must span"},
		{"serialflap needs no host", Fault{Kind: FaultSerialFlap, Dur: time.Second, Period: 100 * time.Millisecond}, ""},
		{"clockskew with negative scale", Fault{Kind: FaultClockSkew, Host: "backup", Dur: time.Second, Scale: -1}, "scale must be positive"},
		{"clockskew without duration", Fault{Kind: FaultClockSkew, Host: "backup", Scale: 1.1}, "duration must be positive"},
		{"clockskew may run fast", Fault{Kind: FaultClockSkew, Host: "backup", Dur: time.Second, Scale: 0.9}, ""},
		{"unknown kind", Fault{Kind: "meteor", Host: "primary"}, "unknown fault kind"},
		{"empty kind", Fault{Host: "primary"}, "unknown fault kind"},
		{"serial cut needs no host", Fault{Kind: FaultSerialCut}, ""},
		{"drop on gateway link", Fault{Kind: FaultDrop, Host: "gateway", Dur: time.Second}, ""},
		{"reboot", Fault{Kind: FaultReboot, Host: "backup"}, ""},
		// Its echo workload used to panic writing to the stopped stack.
		{"crash the client", Fault{Kind: FaultCrash, Host: "client"}, "the client's workload would go on driving its dead host"},
		// A role resolves as the fault strikes.
		{"crash serving", Fault{Kind: FaultCrash, Host: "serving"}, ""},
		{"appcrash standby", Fault{Kind: FaultAppCrashCleanup, Host: "standby"}, ""},
		{"drop standby without duration", Fault{Kind: FaultDrop, Host: "standby"}, "duration must be positive"},
	} {
		_, err := tb.Arm(tc.f)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// Witness and logger exist, and have links, in the topologies that ask
	// for them.
	full := startedTestbed(t, Options{Seed: 1, WithWitness: true, WithLogger: true})
	for _, host := range []string{"witness", "logger"} {
		if full.Link(host) == nil {
			t.Errorf("Link(%q) = nil in a topology that has the host", host)
		}
		if _, err := full.Arm(Fault{Kind: FaultDrop, Host: host, Dur: time.Second}); err != nil {
			t.Errorf("drop on %s: %v", host, err)
		}
	}
	if _, err := full.Arm(Fault{Kind: FaultAppCrashSilent, Host: "witness"}); err != nil {
		t.Errorf("appcrash on the witness replica: %v", err)
	}
}

// TestStartClient covers the client primitive: both workload kinds run to
// completion through it, and a workload of the other kind than the attached
// servers speak is refused.
func TestStartClient(t *testing.T) {
	tb := startedTestbed(t, Options{Seed: 3})
	if _, err := tb.StartClient("client/app", Workload{Echo: true, Rounds: 5, MsgSize: 64}); err == nil ||
		!strings.Contains(err.Error(), "cannot mix") {
		t.Fatalf("echo client against data servers: error %v, want a refusal to mix", err)
	}
	dl, err := tb.StartClient("client/app", Workload{Bytes: 1 << 20})
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !app.Completed(dl) || dl.Progress() != "1048576/1048576 bytes" || dl.Conn() == nil {
		t.Fatalf("download ended at %s", dl.Progress())
	}

	etb := Build(Options{Seed: 3})
	if err := etb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start sttcp: %v", err)
	}
	etb.AttachServers(true)
	if _, err := etb.StartClient("client/app", Workload{Bytes: 1 << 20}); err == nil {
		t.Fatal("download against echo servers accepted")
	}
	ec, err := etb.StartClient("client/app", Workload{Echo: true, Rounds: 20, MsgSize: 256, Gap: time.Millisecond})
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	if err := etb.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if gap, _ := ec.MaxGap(); !app.Completed(ec) || ec.Progress() != "20/20 rounds" || gap < time.Millisecond {
		t.Fatalf("echo ended at %s, max gap %v", ec.Progress(), gap)
	}
}

// TestPlanFailureFreePostcondition holds Plan.Run to gray-quiescence, its
// postcondition for a plan that injects nothing, from both sides. A
// download well past the 1.4 s at which the byte-lag detector used to
// convict a healthy backup must pass; the same plan with the detectors
// bent by hand into raising a false suspicion must fail Run itself —
// no runner has to remember to look.
func TestPlanFailureFreePostcondition(t *testing.T) {
	healthy := Plan{Options: Options{Seed: 9}, Clients: []Workload{Workload{Bytes: 48 << 20}}, Horizon: time.Minute}
	run, err := healthy.Run()
	if err != nil {
		t.Fatalf("failure-free plan: %v", err)
	}
	if run.Clients[0].(*app.StreamClient).Elapsed() < 3*time.Second {
		t.Fatalf("the download took %v: too short to have crossed the old detector's 1.4 s", run.failover().TransferTime)
	}

	// An application-lag limit shorter than the detector cadence convicts
	// the peer between two reports of a perfectly healthy download.
	bent := healthy
	bent.Mutate = func(c *sttcp.Config) { c.AppMaxLagTime = 50 * time.Millisecond }
	if _, err := bent.Run(); err == nil || !strings.Contains(err.Error(), "gray-quiescence: ") {
		t.Fatalf("false suspicion in a failure-free plan: Run returned %v, want a gray-quiescence violation", err)
	}

	// With a fault in the plan a suspicion is the expected outcome.
	faulty := healthy
	faulty.Faults = []Fault{crashPrimary(500 * time.Millisecond)}
	if run, err = faulty.Run(); err != nil || !run.Testbed.Tracer.Has(trace.KindSuspect) {
		t.Fatalf("plan with a crash: err %v, suspect recorded %v", err, run != nil && run.Testbed.Tracer.Has(trace.KindSuspect))
	}
}

// TestPlanJudgesSeededBugs breaks a mechanism of an ST-TCP crash plan two
// ways and holds Plan.Run itself to catching each, with no judge of the
// caller's looking: a backup whose accepted connections transmit (the
// client sees identical bytes, so only backup-silence can tell), and
// detectors blinded by an hour-long heartbeat period (the crash strands the
// client, which client-integrity reports).
func TestPlanJudgesSeededBugs(t *testing.T) {
	crash := Plan{Options: Options{Seed: 11}, Clients: []Workload{{Bytes: 2 << 20}},
		Faults: []Fault{crashPrimary(100 * time.Millisecond)}, Horizon: 10 * time.Second}

	chatty := crash
	chatty.Judge.Watch = func(run *Run) {
		n := run.Testbed.BackupNode
		accept := n.OnAccept
		n.OnAccept = func(c *tcp.Conn) {
			c.SetSuppressed(false)
			accept(c)
		}
	}
	blind := crash
	blind.Mutate = func(c *sttcp.Config) { c.HBPeriod = time.Hour }

	for _, tc := range []struct {
		name string
		p    Plan
		want string
	}{
		{"unsuppressed backup", chatty, "backup-silence: backup sent "},
		{"blind detectors", blind, "client-integrity: client/app never finished"},
	} {
		run, err := tc.p.Run()
		if run == nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run returned %v, want a violation %q", tc.name, err, tc.want)
		}
		if len(run.Violations) == 0 || !strings.HasPrefix(run.Violations[0].Error(), tc.want) {
			t.Errorf("%s: violations %v, want the first to read %q", tc.name, run.Violations, tc.want)
		}
	}
}

// TestPlainPlan runs a small download and its plain-TCP twin, the same
// plan with Plain set. Failure-free, the twin needs no ST-TCP node and no
// postcondition, and its client is the ST-TCP plan's. Across a primary
// crash the twin completes only by reconnecting once to the backup, while
// the ST-TCP plan's client never reconnects.
func TestPlainPlan(t *testing.T) {
	for _, tc := range []struct {
		name       string
		plain      bool
		faults     []Fault
		reconnects int
	}{
		{"plain failure-free", true, nil, 0},
		{"plain primary crash", true, []Fault{crashPrimary(200 * time.Millisecond)}, 1},
		{"st-tcp primary crash", false, []Fault{crashPrimary(200 * time.Millisecond)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := Plan{Options: Options{Seed: 4}, Plain: tc.plain, Clients: []Workload{{Bytes: 4 << 20}},
				Faults: tc.faults, Horizon: time.Minute}.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := run.failover().Reconnects; got != tc.reconnects {
				t.Errorf("%d reconnects, want %d", got, tc.reconnects)
			}
			if _, reconnecting := run.Clients[0].(*app.ReconnectClient); reconnecting != (tc.plain && tc.faults != nil) {
				t.Errorf("client %T: a plain plan reconnects exactly when it injects a fault", run.Clients[0])
			}
			if (run.Testbed.PrimaryNode == nil) != tc.plain {
				t.Errorf("primary node %v in a plan with Plain=%v", run.Testbed.PrimaryNode, tc.plain)
			}
		})
	}
}

// TestFailureFreeRegistryPlans runs every registry demo whose plans inject
// nothing; each must end with zero suspects (run() enforces it, so a nil
// error is the check).
func TestFailureFreeRegistryPlans(t *testing.T) {
	for name, p := range map[string]Params{
		"demo3":   {Seed: 5, Size: 64 << 20},
		"nicload": {Seed: 5},
	} {
		d, _ := DemoByName(name)
		runs, _, err := d.Run(p)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, run := range runs {
			if n := run.Testbed.Tracer.Count(trace.KindSuspect); n != 0 {
				t.Errorf("%s: %d suspect events in a failure-free run", name, n)
			}
		}
	}
}

// TestFailureFreeAtSlowHeartbeats: a failure-free download at the slow
// periods Demo 2 sweeps, and a back-to-back echo of large messages, end with
// no suspect and every byte verified (Run enforces both). The suspicion scorer
// used to charge the peer for the age of its last report and convicted the
// healthy backup 2.5 s into the download at 1 s and 4 s in at 2 s. The echo
// sends the client's bytes faster than one heartbeat period's reports
// release them: the primary's hold buffer used to overflow and convict the
// backup within 170 ms, and now the client's window closes until the report.
func TestFailureFreeAtSlowHeartbeats(t *testing.T) {
	for _, c := range []struct {
		hb time.Duration
		w  Workload
	}{
		{500 * time.Millisecond, Workload{Bytes: 64 << 20}},
		{time.Second, Workload{Bytes: 64 << 20}},
		{2 * time.Second, Workload{Bytes: 64 << 20}},
		{200 * time.Millisecond, Workload{Echo: true, Rounds: 2000, MsgSize: 8 << 10}},
		{200 * time.Millisecond, Workload{Echo: true, Rounds: 2000, MsgSize: 64 << 10}},
		{500 * time.Millisecond, Workload{Echo: true, Rounds: 2000, MsgSize: 16 << 10}},
		{time.Second, Workload{Echo: true, Rounds: 2000, MsgSize: 16 << 10}},
		{2 * time.Second, Workload{Echo: true, Rounds: 2000, MsgSize: 16 << 10}},
	} {
		if _, err := (Plan{Options: Options{Seed: 42}, HB: c.hb, Clients: []Workload{c.w}, Horizon: 2 * time.Minute}).Run(); err != nil {
			t.Errorf("heartbeat %v, %+v: %v", c.hb, c.w, err)
		}
	}
}

// TestRejoinReplacesACutCable: a rejoin is a repair, and the repair also
// replaces a cut serial cable, whichever path runs it (Reboot resets only
// the dead machine's port). The lab's rejoin used to leave the survivor's
// port cut, so the rejoined pair ran on the IP heartbeat alone.
func TestRejoinReplacesACutCable(t *testing.T) {
	run, err := Plan{
		Options: Options{Seed: 7},
		Clients: []Workload{{Bytes: 4 << 20}},
		Faults: []Fault{
			{At: 200 * time.Millisecond, Kind: FaultSerialCut},
			crashPrimary(500 * time.Millisecond),
			{At: 5 * time.Second, Kind: FaultRejoin},
		},
		Horizon: 8 * time.Second,
	}.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tb := run.Testbed
	if serialDown(tb.SerialPrimary) || serialDown(tb.SerialBackup) {
		t.Fatalf("serial ports after the rejoin: primary down %v, backup down %v, want both up",
			serialDown(tb.SerialPrimary), serialDown(tb.SerialBackup))
	}
	if tb.Standby() == nil {
		t.Fatalf("pair %v/%v after the rejoin, want active/active", tb.PrimaryNode.State(), tb.BackupNode.State())
	}
}

// TestFaultsOnACrashedHost strikes faults at a host after its crash. An
// application crash there ran the dead replica — a cleanup one closing a
// live connection sent its FIN on the stopped clock and panicked in the
// event loop — and fails as it strikes instead, as it does after a reboot
// (the replica died with the machine); a reboot fails on a host that is
// up, where it used to do nothing. A link drop is the switch port's act,
// not the dead host's, so dead-host-silence does not charge the host for
// its record.
func TestFaultsOnACrashedHost(t *testing.T) {
	crash := crashPrimary(500 * time.Millisecond)
	at := func(d time.Duration, kind FaultKind) Fault {
		return Fault{At: d, Kind: kind, Host: "primary", Dur: time.Second}
	}
	for _, tc := range []struct {
		name   string
		faults []Fault
		want   string // "" = the run passes
		bytes  int64
	}{
		{"appcrash after a crash", []Fault{crash, at(700*time.Millisecond, FaultAppCrashCleanup)},
			`appcrash-cleanup at 700ms: host "primary" is down`, 16 << 20},
		{"appcrash after a reboot", []Fault{crash, at(700*time.Millisecond, FaultReboot), at(900*time.Millisecond, FaultAppCrashSilent)},
			`appcrash-silent at 900ms: host "primary" runs no server application since its reboot`, 16 << 20},
		{"drop after a crash", []Fault{crash, at(700*time.Millisecond, FaultDrop)}, "", 16 << 20},
		{"reboot of a live host", []Fault{at(300*time.Millisecond, FaultReboot)},
			`reboot at 300ms: host "primary" is up; only a crashed host reboots`, 16 << 20},
		{"cleanup on the crashed survivor of a rejoin", []Fault{crashPrimary(time.Second), {At: 3 * time.Second, Kind: FaultRejoin},
			{At: 5 * time.Second, Kind: FaultCrash, Host: "backup"}, {At: 6 * time.Second, Kind: FaultAppCrashCleanup, Host: "backup"}},
			`appcrash-cleanup at 6s: host "backup" is down`, 16 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := Plan{Options: Options{Seed: 4}, Clients: []Workload{{Bytes: tc.bytes}},
				Faults: tc.faults, Horizon: 10 * time.Second}.Run()
			if run == nil {
				t.Fatalf("run: %v", err)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("run: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("run returned %v, want an error containing %q", err, tc.want)
			case len(run.Violations) != 0:
				t.Fatalf("violations %v, want none", run.Violations)
			}
		})
	}
}

// TestEveryCrashedHostIsJudged: dead-host-silence opens an era at every
// crash of every host — a host with no node (the gateway) and a host that
// a reboot without a rejoin brought back, then crashed again. A record a
// harness writes under each dead host's name is what a zombie would write;
// the registry must convict both, and without the records the plan passes.
// With trace detail off a zombie heartbeat leaves no record, only its
// counter, and the registry must convict that too.
func TestEveryCrashedHostIsJudged(t *testing.T) {
	p := Plan{Options: Options{Seed: 4}, Clients: []Workload{{Bytes: 16 << 20}}, Horizon: 10 * time.Second,
		Faults: []Fault{
			crashPrimary(500 * time.Millisecond),
			{At: 2 * time.Second, Kind: FaultReboot, Host: "primary"},
			crashPrimary(2500 * time.Millisecond),
			{At: 3 * time.Second, Kind: FaultCrash, Host: "gateway"},
		}}
	if _, err := p.Run(); err != nil {
		t.Fatalf("silent dead hosts: %v", err)
	}
	zombie := func(act func(tb *Testbed)) error {
		p.Judge.Watch = func(run *Run) {
			tb := run.Testbed
			tb.Sim.At(sim.Epoch.Add(4*time.Second), func() { act(tb) })
		}
		_, err := p.Run()
		return err
	}
	err := zombie(func(tb *Testbed) {
		tb.Tracer.Emit(trace.KindGeneric, "primary/app", "zombie")
		tb.Tracer.Emit(trace.KindGeneric, "gateway/ip", "zombie")
	})
	for _, want := range []string{
		"dead-host-silence: primary moved 0 counters and traced 1 events while crashed (era 2.5s–10s), the first generic from primary/app at 4s",
		"dead-host-silence: gateway moved 0 counters and traced 1 events while crashed (era 3s–10s), the first generic from gateway/ip at 4s",
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("zombie records: Run returned %v, want %q", err, want)
		}
	}

	if p.TraceDetail {
		t.Fatal("the heartbeat case must run without trace detail")
	}
	err = zombie(func(tb *Testbed) {
		for _, r := range tb.Metrics.Instruments() {
			if r.Component == "primary/sttcp" && r.Name == "hb.sent" {
				r.Counter.Inc()
				return
			}
		}
		t.Error("no primary/sttcp hb.sent counter to move")
	})
	want := "dead-host-silence: primary moved 1 counters and traced 0 events while crashed (era 2.5s–10s): primary/sttcp hb.sent{link=ip-link} +1"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("zombie heartbeat: Run returned %v, want %q", err, want)
	}
}

// TestLongDownloadsStayFailureFree is the detector regression: 64 MiB and
// 100 MiB downloads with nothing injected run 5.6 and 8.7 virtual seconds
// at 100 Mbit/s, and must end with zero suspects and both nodes active
// (the postcondition inside run() is the check). Before the §4.2.1
// byte-lag criterion compared like with like, every such run lost its
// backup at t = 1.4 s.
func TestLongDownloadsStayFailureFree(t *testing.T) {
	if testing.Short() {
		t.Skip("two long transfers")
	}
	for _, mib := range []int64{64, 100} {
		if _, err := (Plan{Options: Options{Seed: mib}, Clients: []Workload{Workload{Bytes: mib << 20}}, Horizon: time.Minute}).Run(); err != nil {
			t.Errorf("%d MiB: %v", mib, err)
		}
	}
}

// TestAlwaysOnTraceIsMilestones holds the always-on trace to what it is
// for: with TraceDetail off a failure-free plan records no event of a
// high-volume kind, so the length of its trace does not depend on how many
// bytes or rounds the client moved — each delivery is recorded once, in the
// client's progress series. The per-packet narrative is gated, not gone:
// the same plans with TraceDetail on contain it.
func TestAlwaysOnTraceIsMilestones(t *testing.T) {
	download := func(bytes int64) Workload { return Workload{Bytes: bytes} }
	echo := func(rounds int) Workload {
		return Workload{Echo: true, Rounds: rounds, MsgSize: 64, Gap: time.Millisecond}
	}
	run := func(w Workload, detail bool) *Run {
		t.Helper()
		out, err := Plan{Options: Options{Seed: 3, TraceDetail: detail}, Clients: []Workload{w}, Horizon: 5 * time.Second}.Run()
		if err != nil {
			t.Fatalf("%+v: %v", w, err)
		}
		return out
	}
	for _, pair := range [][2]Workload{
		{download(1 << 20), download(8 << 20)},
		{echo(100), echo(1000)},
	} {
		short, long := run(pair[0], false), run(pair[1], false)
		if a, b := short.Testbed.Tracer.Len(), long.Testbed.Tracer.Len(); a != b {
			t.Errorf("always-on trace has %d events for %+v and %d for %+v: it grows with the workload",
				a, pair[0], b, pair[1])
		}
		for _, out := range []*Run{short, long} {
			for _, e := range out.Testbed.Tracer.Events() {
				if e.Kind.HighVolume() {
					t.Errorf("%s: %v event recorded with TraceDetail off", out.Clients[0].Progress(), e.Kind)
				}
			}
			if gap, _ := out.Clients[0].MaxGap(); gap <= 0 {
				t.Errorf("%s: no progress series behind the run", out.Clients[0].Progress())
			}
		}

		detailed := run(pair[0], true)
		for _, k := range []trace.Kind{trace.KindAppProgress, trace.KindHBSent, trace.KindHBReceived} {
			if !detailed.Testbed.Tracer.Has(k) {
				t.Errorf("%+v with TraceDetail on: no %v event", pair[0], k)
			}
		}
	}
}

// serialDown reports whether p's end of the cable is cut: only then is a
// message refused as it is sent.
func serialDown(p *serial.Port) bool { return errors.Is(p.Send([]byte{0}), serial.ErrPortDown) }

// corrupts reports whether frames the host puts on its link now get a bit
// flipped.
func corrupts(tb *Testbed, host string) bool {
	l := tb.Link(host)
	before := l.Corrupted
	for i := 0; i < 32; i++ {
		l.TransmitFromA(make([]byte, 64))
	}
	return l.Corrupted > before
}

// serialCorrupts reports, for the primary's and the backup's port, whether
// messages it sends now arrive failing their CRC (a dozen one-byte
// messages each, 3 ms of line time).
func serialCorrupts(t *testing.T, tb *Testbed) string {
	t.Helper()
	p, b := tb.SerialPrimary, tb.SerialBackup
	atB, atP := b.CRCErrors, p.CRCErrors
	for i := 0; i < 12; i++ {
		_, _ = p.Send([]byte{byte(i)}), b.Send([]byte{byte(i)})
	}
	if err := tb.Run(4 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	return fmt.Sprint(b.CRCErrors > atB, p.CRCErrors > atP)
}

// crosses reports whether a frame put on host's link now — by the host, or
// toward it — comes out of the other end within a millisecond (the idle
// LAN needs a few microseconds). The frame is addressed to nobody.
func crosses(t *testing.T, tb *Testbed, host string, fromHost bool) bool {
	t.Helper()
	l, frame := tb.Link(host), make([]byte, 64)
	before := l.Delivered
	if fromHost {
		l.TransmitFromA(frame)
	} else {
		l.TransmitFromB(frame)
	}
	if err := tb.Run(time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	return l.Delivered > before
}

// TestWindowedFaults checks every windowed kind of the vocabulary on an
// otherwise silent testbed: what the fault acts on — a link, the serial
// ports, a host clock — is off-nominal early and late inside [At, At+Dur)
// and exactly nominal again after it; and when a second window of the kind
// opens on the same target before the first has closed, the first one's
// end does not cancel it.
func TestWindowedFaults(t *testing.T) {
	const at, dur = 10 * time.Millisecond, 100 * time.Millisecond
	wire := func(t *testing.T, tb *Testbed) string { // "out in": does a frame cross the primary's link each way
		return fmt.Sprint(crosses(t, tb, "primary", true), crosses(t, tb, "primary", false))
	}
	for _, tc := range []struct {
		f      Fault
		state  func(t *testing.T, tb *Testbed) string
		during string
	}{
		{Fault{Kind: FaultDrop}, wire, "true false"},
		{Fault{Kind: FaultLoss, Rate: 1}, wire, "false false"},
		{Fault{Kind: FaultDelay, Delay: 5 * time.Millisecond}, wire, "false false"},
		{Fault{Kind: FaultTxCut}, wire, "false true"},
		{Fault{Kind: FaultNICFlap, Period: 40 * time.Millisecond}, wire, "false false"}, // sampled in a down half
		{Fault{Kind: FaultCorrupt, Rate: 0.5},
			func(_ *testing.T, tb *Testbed) string { return fmt.Sprint(corrupts(tb, "primary")) }, "true"},
		{Fault{Kind: FaultSerialCorrupt, Rate: 0.25}, serialCorrupts, "true true"},
		{Fault{Kind: FaultSerialFlap, Period: 40 * time.Millisecond},
			func(_ *testing.T, tb *Testbed) string {
				return fmt.Sprint(serialDown(tb.SerialPrimary), serialDown(tb.SerialBackup))
			},
			"true true"},
		{Fault{Kind: FaultStarve, Scale: 10},
			func(_ *testing.T, tb *Testbed) string { return fmt.Sprint(tb.Primary.CPU().Rate()) }, "10"},
		{Fault{Kind: FaultClockSkew, Scale: 1.1},
			func(_ *testing.T, tb *Testbed) string { return fmt.Sprint(tb.Primary.Clock().Rate()) }, "1.1"},
	} {
		t.Run(string(tc.f.Kind), func(t *testing.T) {
			var tb *Testbed
			runTo := func(when time.Duration) {
				t.Helper()
				if err := tb.Run(when - tb.Sim.Elapsed()); err != nil {
					t.Fatalf("run: %v", err)
				}
			}
			schedule := func(at, dur time.Duration) {
				t.Helper()
				f := tc.f
				f.At, f.Dur, f.Host = at, dur, "primary"
				strike, err := tb.Arm(f)
				if err != nil {
					t.Fatalf("arm: %v", err)
				}
				tb.Sim.At(sim.Epoch.Add(f.At), func() { _ = strike() })
			}
			tb = Build(Options{Seed: 1})
			nominal := tc.state(t, tb)
			schedule(at, dur)
			for _, inside := range []time.Duration{at + 5*time.Millisecond, at + dur - 5*time.Millisecond} {
				runTo(inside)
				if got := tc.state(t, tb); got != tc.during || got == nominal {
					t.Errorf("at %v, inside the window: %s, want %s (nominal %s)", inside, got, tc.during, nominal)
				}
			}
			runTo(at + dur + 50*time.Millisecond)
			if got := tc.state(t, tb); got != nominal {
				t.Errorf("after the window: %s, want nominal %s", got, nominal)
			}

			// [10ms, 60ms) and [40ms, 120ms), sampled at 85 ms (a down half
			// of the second flap) and once both are over.
			tb = Build(Options{Seed: 1})
			schedule(at, 50*time.Millisecond)
			schedule(at+30*time.Millisecond, 80*time.Millisecond)
			runTo(85 * time.Millisecond)
			if got := tc.state(t, tb); got != tc.during {
				t.Errorf("in the second of two overlapping windows, after the first closed: %s, want %s", got, tc.during)
			}
			runTo(170 * time.Millisecond)
			if got := tc.state(t, tb); got != nominal {
				t.Errorf("after two overlapping windows: %s, want nominal %s", got, nominal)
			}
		})
	}
}
