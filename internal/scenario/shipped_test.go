package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sttcp"
)

// TestShippedScenarios parses and executes every script in the repository's
// scenarios/ directory, so the shipped demos cannot rot.
func TestShippedScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("shipped-scenario sweep skipped in -short")
	}
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".sttcp" {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			text, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			sc, err := Parse(string(text))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := Run(sc, experiment.Options{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, c := range res.Checks {
				if !c.Passed {
					t.Errorf("line %d: expect %s failed: %s", c.Line, c.Cond, c.Detail)
				}
			}
		})
		ran++
	}
	if ran < 5 {
		t.Fatalf("only %d shipped scenarios found", ran)
	}
}

// TestShippedScenariosCompile pins what each shipped script compiles to:
// when its clients start, the faults it strikes (rejoin among them), when
// its expectations are judged, and the options its config mutation
// carries. compile is one pass over the parsed statements; a client and an
// expect take the instant the runs before them reach.
func TestShippedScenariosCompile(t *testing.T) {
	crash := func(at time.Duration, host string) experiment.Fault {
		return experiment.Fault{At: at, Kind: experiment.FaultCrash, Host: host}
	}
	appCrashCleanup := func(at time.Duration) experiment.Fault {
		return experiment.Fault{At: at, Kind: experiment.FaultAppCrashCleanup, Host: "primary"}
	}
	const s, m = time.Second, time.Minute
	want := map[string]struct {
		clients, expects []time.Duration
		faults           []experiment.Fault
		witness          bool
		mutated          sttcp.Config // what Mutate makes of a zero config
	}{
		"demo1-failover.sttcp": {
			clients: []time.Duration{0}, expects: []time.Duration{60 * s, 60 * s},
			faults: []experiment.Fault{crash(500*time.Millisecond, "primary")},
		},
		"demo4-appcrash.sttcp": {
			clients: []time.Duration{0}, expects: []time.Duration{2 * m, 2 * m},
			faults:  []experiment.Fault{appCrashCleanup(700 * time.Millisecond)},
			mutated: sttcp.Config{MaxDelayFIN: 20 * s},
		},
		"demo5-nicfailure.sttcp": {
			clients: []time.Duration{0}, expects: []time.Duration{2 * m, 2 * m},
			faults: []experiment.Fault{{At: 2 * s, Kind: experiment.FaultNICFail, Host: "primary"}},
		},
		"double-failover.sttcp": {
			clients: []time.Duration{0, 7 * s}, expects: []time.Duration{5 * s, 7 * s, 127 * s},
			faults: []experiment.Fault{
				crash(200*time.Millisecond, "primary"),
				{At: 5 * s, Kind: experiment.FaultRejoin},
				crash(8*s, "backup"),
			},
		},
		"gray-slow.sttcp": {
			clients: []time.Duration{0}, expects: []time.Duration{60 * s, 60 * s},
			faults:  []experiment.Fault{{At: s, Kind: experiment.FaultStarve, Host: "primary", Scale: 500, Dur: 8 * s}},
			mutated: sttcp.Config{Suspicion: sttcp.SuspicionConfig{Enabled: true}},
		},
		"long-download.sttcp": {
			clients: []time.Duration{0}, expects: []time.Duration{30 * s, 30 * s, 30 * s},
		},
		"serial-cut.sttcp": {
			clients: []time.Duration{0}, expects: []time.Duration{60 * s, 60 * s},
			faults: []experiment.Fault{{At: 300 * time.Millisecond, Kind: experiment.FaultSerialCut}},
		},
		"transient-recovery.sttcp": {
			clients: []time.Duration{0}, expects: []time.Duration{60 * s, 60 * s, 60 * s},
			faults: []experiment.Fault{{At: s, Kind: experiment.FaultDrop, Host: "backup", Dur: 300 * time.Millisecond}},
		},
		"witness-majority.sttcp": {
			clients: []time.Duration{0}, expects: []time.Duration{2 * m, 2 * m},
			faults:  []experiment.Fault{appCrashCleanup(2 * s)},
			witness: true, mutated: sttcp.Config{MaxDelayFIN: 15 * s},
		},
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.sttcp"))
	if err != nil || len(files) != len(want) {
		t.Fatalf("%d shipped scripts (%v), want the %d this table pins", len(files), err, len(want))
	}
	for _, f := range files {
		w, ok := want[filepath.Base(f)]
		if !ok {
			t.Errorf("%s: not in the table", f)
			continue
		}
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		p, expects, err := compile(sc, experiment.Options{})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var clients, judged []time.Duration
		for _, c := range p.Clients {
			clients = append(clients, c.At)
		}
		for _, e := range expects {
			judged = append(judged, e.at)
		}
		var mutated sttcp.Config
		p.Mutate(&mutated)
		if !reflect.DeepEqual(clients, w.clients) || !reflect.DeepEqual(judged, w.expects) ||
			!reflect.DeepEqual(p.Faults, w.faults) || p.WithWitness != w.witness || mutated != w.mutated {
			t.Errorf("%s compiles to clients %v, faults %+v, expects %v, witness %v, mutation %+v\nwant clients %v, faults %+v, expects %v, witness %v, mutation %+v",
				filepath.Base(f), clients, p.Faults, judged, p.WithWitness, mutated,
				w.clients, w.faults, w.expects, w.witness, w.mutated)
		}
		if p.Seed != 42 || p.HB != 0 || p.Horizon != w.expects[len(w.expects)-1] {
			t.Errorf("%s: seed %d, hb %v, horizon %v; want the defaults and the last expect's instant", filepath.Base(f), p.Seed, p.HB, p.Horizon)
		}
	}
}
