package experiment

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// struckHosts lists the machines the run's faults of kind k struck, in
// strike order.
func struckHosts(run *Run, k FaultKind) []string {
	var hosts []string
	for _, s := range run.Testbed.strikes {
		if s.Kind == k {
			hosts = append(hosts, s.Host)
		}
	}
	return hosts
}

// TestCrashServingFollowsTheRole crashes the serving node twice around a
// takeover and a rejoin: the first crash strikes the primary machine, the
// second the backup machine, which serves since the takeover.
func TestCrashServingFollowsTheRole(t *testing.T) {
	run, err := Plan{
		Options: Options{Seed: 5},
		Clients: []Workload{{Bytes: 4 << 20}, {At: 7 * time.Second, Bytes: 8 << 20}},
		Faults: []Fault{
			{At: 200 * time.Millisecond, Kind: FaultCrash, Host: "serving"},
			{At: 5 * time.Second, Kind: FaultRejoin},
			{At: 8 * time.Second, Kind: FaultCrash, Host: "serving"},
		},
		Horizon: time.Minute,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := struckHosts(run, FaultCrash), []string{"primary", "backup"}; !reflect.DeepEqual(got, want) {
		t.Errorf("crash serving struck %v, want %v", got, want)
	}
	if got := run.Testbed.Serving().Host().Name(); got != "primary" {
		t.Errorf("%s serves at the end, want the rejoined primary machine", got)
	}
}

// TestStandbyFaultWithoutAStandby drops the standby's link after a
// takeover has left the survivor without one: the fault fails as it
// strikes, with an error that names the role, and strikes nothing.
func TestStandbyFaultWithoutAStandby(t *testing.T) {
	run, err := Plan{
		Options: Options{Seed: 5},
		Clients: []Workload{{Bytes: 4 << 20}},
		Faults: []Fault{
			{At: 200 * time.Millisecond, Kind: FaultCrash, Host: "primary"},
			{At: 3 * time.Second, Kind: FaultDrop, Host: "standby", Dur: 100 * time.Millisecond},
		},
		Horizon: 30 * time.Second,
	}.Run()
	if run == nil {
		t.Fatalf("the run was not built: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "drop at 3s: no standby node to strike") {
		t.Fatalf("error %v, want the drop to fail naming the standby role", err)
	}
	if len(run.Violations) != 0 {
		t.Errorf("violations: %v", run.Violations)
	}
	if hosts := struckHosts(run, FaultDrop); len(hosts) != 0 {
		t.Errorf("the drop struck %v", hosts)
	}
}

// TestRoleWindowRestoresTheMachineItStruck opens a loss window on the
// serving node before a takeover and another after it: the first strikes
// the primary machine and outlives the takeover, the second the backup
// machine. Each window keeps and restores its own machine's link, so an
// early end cannot leave a link lossy or cut another window short.
func TestRoleWindowRestoresTheMachineItStruck(t *testing.T) {
	run, err := Plan{
		Options: Options{Seed: 5},
		Clients: []Workload{{Bytes: 8 << 20}},
		Faults: []Fault{
			{At: 100 * time.Millisecond, Kind: FaultLoss, Host: "serving", Rate: 0.02, Dur: 3 * time.Second},
			{At: 500 * time.Millisecond, Kind: FaultCrash, Host: "primary"},
			{At: 2 * time.Second, Kind: FaultLoss, Host: "serving", Rate: 0.02, Dur: 3 * time.Second},
		},
		Horizon: 30 * time.Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := struckHosts(run, FaultLoss), []string{"primary", "backup"}; !reflect.DeepEqual(got, want) {
		t.Errorf("loss serving struck %v, want %v", got, want)
	}
	want := map[Fault]int{{Kind: FaultLoss, Host: "primary"}: 0, {Kind: FaultLoss, Host: "backup"}: 0}
	if got := run.Testbed.holds; !reflect.DeepEqual(got, want) {
		t.Errorf("open windows at the end %v, want each machine's window closed %v", got, want)
	}
}
