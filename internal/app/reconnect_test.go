package app

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Two servers on their own addresses: srv1 is addrServer.
var srv1Addr, srv2Addr = addrServer, ip.MakeAddr(10, 0, 0, 3)

// hotBackup is a client and two independent data servers on one switch.
type hotBackup struct {
	sim        *sim.Simulator
	tracer     *trace.Recorder
	client     *cluster.Host
	srv1, srv2 *cluster.Host
	app1, app2 *DataServer
}

func newHotBackup(t *testing.T, seed int64) *hotBackup {
	t.Helper()
	s := sim.New(seed)
	tr := trace.NewRecorder(s.Now)
	sw := netem.NewSwitch(s, "sw", time.Microsecond)
	f := &hotBackup{
		sim:    s,
		tracer: tr,
		client: cluster.New(s, cluster.HostConfig{Name: "client", EthNum: 1, Addr: addrClient, Tracer: tr}),
		srv1:   cluster.New(s, cluster.HostConfig{Name: "srv1", EthNum: 2, Addr: srv1Addr, Tracer: tr}),
		srv2:   cluster.New(s, cluster.HostConfig{Name: "srv2", EthNum: 3, Addr: srv2Addr, Tracer: tr}),
	}
	for _, h := range []*cluster.Host{f.client, f.srv1, f.srv2} {
		netem.Connect(s, sw, h.NIC(), netem.DefaultLANConfig())
	}
	f.app1 = NewDataServer("srv1/app", tr)
	f.app2 = NewDataServer("srv2/app", tr)
	l1, err := f.srv1.TCP().Listen(srv1Addr, 80)
	if err != nil {
		t.Fatalf("listen srv1: %v", err)
	}
	l1.OnEstablished = f.app1.Accept
	l2, err := f.srv2.TCP().Listen(srv2Addr, 80)
	if err != nil {
		t.Fatalf("listen srv2: %v", err)
	}
	l2.OnEstablished = f.app2.Accept
	return f
}

func newClient(f *hotBackup, size int64, stall time.Duration) *ReconnectClient {
	cl := NewReconnectClient("client/app", f.client.TCP(), size, stall, f.tracer)
	cl.AddServer(srv1Addr, 80)
	cl.AddServer(srv2Addr, 80)
	return cl
}

func TestNoFailureNoReconnect(t *testing.T) {
	f := newHotBackup(t, 1)
	cl := newClient(f, 4<<20, 3*time.Second)
	if err := cl.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	_ = f.sim.Run(time.Minute)
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		t.Fatalf("done=%v err=%v", cl.Done, cl.Err)
	}
	if cl.Reconnects != 0 {
		t.Fatalf("reconnected %d times without a failure", cl.Reconnects)
	}
}

// TestReconnectAndResume: the first server crashes mid-transfer; the client
// must detect the stall, move to the second server, and resume at the
// break point with the pattern intact.
func TestReconnectAndResume(t *testing.T) {
	f := newHotBackup(t, 2)
	cl := newClient(f, 16<<20, 2*time.Second)
	if err := cl.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	f.sim.Schedule(400*time.Millisecond, f.srv1.CrashHW)
	_ = f.sim.Run(5 * time.Minute)
	if !cl.Done || cl.Err != nil {
		t.Fatalf("done=%v err=%v received=%d", cl.Done, cl.Err, cl.Received)
	}
	if cl.VerifyFailures != 0 {
		t.Fatal("resumed stream did not match the pattern")
	}
	if cl.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", cl.Reconnects)
	}
	// Both servers must have served something (the resume actually
	// happened rather than a restart from the first server).
	if f.app1.BytesServed == 0 || f.app2.BytesServed == 0 {
		t.Fatalf("served: srv1=%d srv2=%d", f.app1.BytesServed, f.app2.BytesServed)
	}
	if f.app1.BytesServed+f.app2.BytesServed >= 2*(16<<20) {
		t.Fatalf("transfer restarted instead of resuming: %d + %d",
			f.app1.BytesServed, f.app2.BytesServed)
	}
	gap, _ := cl.MaxGap()
	if gap < 2*time.Second {
		t.Fatalf("disruption %v below the stall timeout — detector did not govern", gap)
	}
}

// TestFirstServerDeadAtStart: the dial itself fails over.
func TestFirstServerDeadAtStart(t *testing.T) {
	f := newHotBackup(t, 3)
	f.srv1.CrashHW()
	cl := newClient(f, 1<<20, time.Second)
	if err := cl.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	_ = f.sim.Run(5 * time.Minute)
	if !cl.Done || cl.Err != nil {
		t.Fatalf("done=%v err=%v", cl.Done, cl.Err)
	}
	if cl.Reconnects == 0 {
		t.Fatal("never failed over from the dead first server")
	}
	if f.app2.BytesServed == 0 {
		t.Fatal("second server served nothing")
	}
}

// TestAllServersDeadGivesUp: bounded retries, terminal error.
func TestAllServersDeadGivesUp(t *testing.T) {
	f := newHotBackup(t, 4)
	f.srv1.CrashHW()
	f.srv2.CrashHW()
	cl := newClient(f, 1<<20, 500*time.Millisecond)
	if err := cl.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	_ = f.sim.Run(10 * time.Minute)
	if !cl.Done {
		t.Fatal("client never gave up")
	}
	if cl.Err == nil {
		t.Fatal("client reported success with every server dead")
	}
}
