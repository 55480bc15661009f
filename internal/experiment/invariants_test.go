package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// TestTransmitterEntitled pins the transmitter-entitlement predicate that
// the single-transmitter invariant is built on: exactly the active/non-FT
// primary and any taken-over node may own client output.
func TestTransmitterEntitled(t *testing.T) {
	cases := []struct {
		role  sttcp.Role
		state sttcp.NodeState
		want  bool
	}{
		{sttcp.RolePrimary, sttcp.StateActive, true},
		{sttcp.RolePrimary, sttcp.StateNonFT, true},
		{sttcp.RolePrimary, sttcp.StateTakenOver, true},
		{sttcp.RolePrimary, sttcp.StateStopped, false},
		{sttcp.RoleBackup, sttcp.StateActive, false},
		{sttcp.RoleBackup, sttcp.StateTakenOver, true},
		{sttcp.RoleBackup, sttcp.StateNonFT, false},
		{sttcp.RoleBackup, sttcp.StateStopped, false},
	}
	for _, c := range cases {
		if got := transmitterEntitled(c.role, c.state); got != c.want {
			t.Errorf("transmitterEntitled(%v, %v) = %v, want %v", c.role, c.state, got, c.want)
		}
	}
}

// TestSingleTransmitterViolation feeds the split-brain judge hand-built
// transmitter sets.
func TestSingleTransmitterViolation(t *testing.T) {
	cases := []struct {
		name string
		who  []string
		bad  bool
	}{
		{"nobody", nil, false},
		{"one-owner", []string{"m1/primary"}, false},
		{"split-brain", []string{"m1/primary", "m2/backup"}, true},
		{"three-way", []string{"m1/primary", "m2/backup", "m3/backup"}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, bad := singleTransmitterViolation(time.Second, "m2/backup became taken-over", c.who)
			if bad != c.bad {
				t.Fatalf("bad = %v, want %v", bad, c.bad)
			}
			if !bad {
				return
			}
			if v.Invariant != "single-transmitter" {
				t.Errorf("invariant = %q", v.Invariant)
			}
			for _, w := range c.who {
				if !strings.Contains(v.Detail, w) {
					t.Errorf("detail %q does not name %s", v.Detail, w)
				}
			}
		})
	}
}

// TestBackupSilenceViolation feeds the silence-era judge hand-built
// segment deltas.
func TestBackupSilenceViolation(t *testing.T) {
	cases := []struct {
		name     string
		segments int64
		bad      bool
	}{
		{"silent", 0, false},
		{"counter-reset", -3, false},
		{"chatty", 7, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, bad := backupSilenceViolation("m2/backup", c.segments, time.Second, 2*time.Second)
			if bad != c.bad {
				t.Fatalf("bad = %v, want %v", bad, c.bad)
			}
			if bad && v.Invariant != "backup-silence" {
				t.Errorf("invariant = %q", v.Invariant)
			}
			if bad && !strings.Contains(v.Detail, "7 TCP segments") {
				t.Errorf("detail %q does not count the segments", v.Detail)
			}
		})
	}
}

// endRun fabricates the slice of a finished run that endInvariants reads:
// a recorder, a metric registry and the client records. Each test case
// sculpts a violating history onto it.
func endRun() *Run {
	now := func() time.Time { return time.Unix(0, 0) }
	return &Run{Testbed: &Testbed{Tracer: trace.NewRecorder(now), Metrics: metrics.New(now)}}
}

// TestEndInvariants drives every post-run invariant with a hand-built
// violating history, plus a clean history that must pass them all.
func TestEndInvariants(t *testing.T) {
	// echo is an echo client that ended this way after all 10 rounds.
	echo := func(err error, bad int64) *app.EchoClient {
		cl := &app.EchoClient{Rounds: 10, RoundsDone: 10}
		cl.Done, cl.Err, cl.VerifyFailures = true, err, bad
		return cl
	}
	cases := []struct {
		name string
		// build sculpts the violating history; want is the invariant
		// that must be reported (empty: no violations at all).
		build func(r *Run)
		want  string
	}{
		{
			name:  "all-clean",
			build: func(r *Run) { r.Clients = append(r.Clients, echo(nil, 0)) },
			want:  "",
		},
		{
			name: "client-unfinished",
			build: func(r *Run) {
				r.Clients = append(r.Clients, &app.EchoClient{Rounds: 10, RoundsDone: 3})
			},
			want: "client-integrity",
		},
		{
			name: "client-error",
			build: func(r *Run) {
				r.Clients = append(r.Clients, echo(errors.New("conn reset"), 0))
			},
			want: "client-integrity",
		},
		{
			name: "client-bad-bytes",
			build: func(r *Run) {
				r.Clients = append(r.Clients, echo(nil, 2))
			},
			want: "client-integrity",
		},
		{
			name: "stream-client-short-download",
			build: func(r *Run) {
				r.Clients = append(r.Clients, &app.StreamClient{Request: 1 << 20, Received: 4096})
			},
			want: "client-integrity",
		},
		{
			name: "takeover-latency-over-bound",
			build: func(r *Run) {
				// Bound is hb.Timeout + the period + 600ms = 1.4s.
				r.Testbed.Metrics.Histogram("backup/sttcp", "sttcp.takeover_latency", nil).Observe(2 * time.Second)
			},
			want: "takeover-latency",
		},
		{
			name: "takeover-latency-at-bound",
			build: func(r *Run) {
				r.Testbed.Metrics.Histogram("backup/sttcp", "sttcp.takeover_latency", nil).Observe(1400 * time.Millisecond)
			},
			want: "",
		},
		{
			name: "takeover-span-without-suspect",
			build: func(r *Run) {
				id := r.Testbed.Tracer.OpenSpan(trace.KindTakeover, 0, "backup/sttcp", "took over")
				r.Testbed.Tracer.CloseSpan(id)
			},
			want: "span-integrity",
		},
		{
			name: "takeover-span-with-suspect-ancestor",
			build: func(r *Run) {
				det := r.Testbed.Tracer.OpenSpan(trace.KindDetection, 0, "backup/sttcp", "detecting")
				r.Testbed.Tracer.EmitIn(det, trace.KindSuspect, "backup/sttcp", 0, "peer failed")
				take := r.Testbed.Tracer.OpenSpan(trace.KindTakeover, det, "backup/sttcp", "took over")
				r.Testbed.Tracer.CloseSpan(take)
				r.Testbed.Tracer.CloseSpan(det)
			},
			want: "",
		},
		{
			name: "span-left-open",
			build: func(r *Run) {
				r.Testbed.Tracer.OpenSpan(trace.KindDetection, 0, "backup/sttcp", "never closed")
			},
			want: "span-integrity",
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := endRun()
			c.build(r)
			got := r.endInvariants(200 * time.Millisecond)
			if c.want == "" {
				if len(got) != 0 {
					t.Fatalf("clean history reported violations: %v", got)
				}
				return
			}
			names := make(map[string]bool)
			known := make(map[string]bool)
			for _, n := range InvariantNames() {
				known[n] = true
			}
			for _, v := range got {
				if !known[v.Invariant] {
					t.Errorf("violation names unregistered invariant %q", v.Invariant)
				}
				names[v.Invariant] = true
			}
			if !names[c.want] {
				t.Fatalf("violations %v do not include %q", got, c.want)
			}
			if len(names) != 1 {
				t.Errorf("history built for %q also tripped %v", c.want, got)
			}
		})
	}
}

// TestGrayDetectionViolation feeds the detection-deadline judge
// hand-built first-takeover instants.
func TestGrayDetectionViolation(t *testing.T) {
	ex := grayExpect{deadline: 5 * time.Second, what: "asymmetric partition (primary outbound cut)"}
	cases := []struct {
		name     string
		first    time.Duration
		tookOver bool
		bad      string // "" = no violation, else a phrase of its detail
	}{
		{"no-takeover", 0, false, "no takeover answered asymmetric partition"},
		{"in-time", 3 * time.Second, true, ""},
		{"at-deadline", 5 * time.Second, true, ""},
		{"late", 6 * time.Second, true, "started at 6s, past deadline 5s"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, bad := grayDetectionViolation(ex, c.first, c.tookOver)
			if bad != (c.bad != "") {
				t.Fatalf("bad = %v, want %v", bad, c.bad != "")
			}
			if bad && (v.Invariant != "gray-detection-bound" || !strings.Contains(v.Detail, c.bad)) {
				t.Errorf("violation %v, want gray-detection-bound naming %q", v, c.bad)
			}
		})
	}
}

// TestGrayEvidenceViolation feeds the fingerprint judge hand-built
// observations: a fingerprint is demanded once the fault exposed enough
// traffic to its rate, and always when it needs none.
func TestGrayEvidenceViolation(t *testing.T) {
	cases := []struct {
		name string
		e    grayEvidence
		bad  bool
	}{
		{"seen", grayEvidence{seen: true, exposed: 900, need: corruptMinFrames}, false},
		{"too-little-traffic", grayEvidence{exposed: corruptMinFrames - 1, need: corruptMinFrames}, false},
		{"clean-window", grayEvidence{exposed: corruptMinFrames, need: corruptMinFrames}, true},
		{"drift-note-missing", grayEvidence{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.e.desc = "checksum rejects on the primary link"
			v, bad := grayEvidenceViolation(c.e)
			if bad != c.bad {
				t.Fatalf("bad = %v, want %v", bad, c.bad)
			}
			if bad && (v.Invariant != "gray-evidence" || !strings.Contains(v.Detail, c.e.desc)) {
				t.Errorf("violation %v does not name the evidence", v)
			}
		})
	}
}

// TestFlapContainmentViolation feeds the oscillation judge the hand-built
// takeover counts of a run in which a flap struck.
func TestFlapContainmentViolation(t *testing.T) {
	cases := []struct {
		name      string
		takeovers int64
		bad       bool
	}{
		{"ridden-out", 0, false},
		{"one-takeover", 1, false},
		{"oscillation", 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, bad := flapContainmentViolation(c.takeovers)
			if bad != c.bad {
				t.Fatalf("bad = %v, want %v", bad, c.bad)
			}
			if bad && (v.Invariant != "flap-containment" || !strings.Contains(v.Detail, "2 takeovers")) {
				t.Errorf("violation %v does not count the takeovers", v)
			}
		})
	}
}

// TestGrayVerdicts drives the three gray verdicts over hand-built
// records of what struck, on a fabricated finished run: each case names
// the one verdict its history must break, or none.
func TestGrayVerdicts(t *testing.T) {
	s := func(f Fault) struck { return struck{Fault: f, exposed: func() int64 { return 1000 }} }
	// now is the fabricated run's clock; takeover records one takeover at
	// it.
	var now time.Duration
	takeover := func(r *Run, at time.Duration) {
		now = at
		tr := r.Testbed.Tracer
		tr.CloseSpan(tr.OpenSpan(trace.KindTakeover, 0, "backup/sttcp", "took over"))
		r.Testbed.Metrics.Counter("backup/sttcp", "sttcp.takeovers").Inc()
	}
	cases := []struct {
		name  string
		build func(r *Run)
		want  string
	}{
		{"starve-unanswered", func(r *Run) {
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{Kind: FaultStarve, Host: "primary", Scale: 500, Dur: 8 * time.Second}))
		}, "gray-detection-bound"},
		{"mild-starve-expects-nothing", func(r *Run) {
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{Kind: FaultStarve, Host: "primary", Scale: 25, Dur: 8 * time.Second}))
		}, ""},
		{"txcut-answered", func(r *Run) {
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{At: time.Second, Kind: FaultTxCut, Host: "primary", Dur: 5 * time.Second}))
			takeover(r, 3*time.Second)
		}, ""},
		{"txcut-answered-late", func(r *Run) {
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{At: time.Second, Kind: FaultTxCut, Host: "primary", Dur: 5 * time.Second}))
			takeover(r, 30*time.Second)
		}, "gray-detection-bound"},
		{"clean-corruption-window", func(r *Run) {
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{Kind: FaultCorrupt, Host: "primary", Rate: 0.1, Dur: time.Second}))
		}, "gray-evidence"},
		{"corruption-caught", func(r *Run) {
			r.Testbed.links["primary"].Corrupted = 3
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{Kind: FaultCorrupt, Host: "primary", Rate: 0.1, Dur: time.Second}))
		}, ""},
		{"clean-serial-window", func(r *Run) {
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{Kind: FaultSerialCorrupt, Rate: 0.4, Dur: 3 * time.Second}))
		}, "gray-evidence"},
		{"skew-unnoted", func(r *Run) {
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{Kind: FaultClockSkew, Host: "backup", Scale: 1.12, Dur: 7 * time.Second}))
		}, "gray-evidence"},
		{"skew-unobservable", func(r *Run) {
			r.plan.Faults = []Fault{{Kind: FaultNICFlap}}
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{Kind: FaultClockSkew, Host: "backup", Scale: 1.12, Dur: 7 * time.Second}))
		}, ""},
		{"flap-oscillation", func(r *Run) {
			r.Testbed.strikes = append(r.Testbed.strikes, s(Fault{Kind: FaultNICFlap, Host: "primary", Period: 200 * time.Millisecond, Dur: 2 * time.Second}))
			takeover(r, 2*time.Second)
			takeover(r, 3*time.Second)
		}, "flap-containment"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := endRun()
			r.Testbed.Tracer = trace.NewRecorder(func() time.Time { return sim.Epoch.Add(now) })
			r.Testbed.echo = true
			r.Testbed.links = map[string]*netem.Link{"primary": {}}
			r.Testbed.SerialPrimary, r.Testbed.SerialBackup = &serial.Port{}, &serial.Port{}
			c.build(r)
			got := r.grayVerdicts(200 * time.Millisecond)
			if c.want == "" {
				if len(got) != 0 {
					t.Fatalf("clean history reported violations: %v", got)
				}
				return
			}
			if len(got) != 1 || got[0].Invariant != c.want {
				t.Fatalf("violations %v, want one of %q", got, c.want)
			}
		})
	}
}
