package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/metrics"
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

// endHarness fabricates the slice of a harness that endInvariants reads:
// a recorder, a metric registry, the primary's config bounds, and the
// client records. Each test case sculpts a violating history onto it.
type endHarness struct {
	h   *harness
	reg *metrics.Registry
}

func newEndHarness() *endHarness {
	epoch := time.Unix(0, 0)
	now := func() time.Time { return epoch }
	h := &harness{run: &experiment.Run{}, tb: &experiment.Testbed{Tracer: trace.NewRecorder(now)}}
	h.cfg.HBPeriod = 200 * time.Millisecond
	h.cfg.HoldBufferSize = 1 << 16
	return &endHarness{h: h, reg: metrics.New(now)}
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
		build func(e *endHarness)
		want  string
	}{
		{
			name:  "all-clean",
			build: func(e *endHarness) { e.h.run.Clients = append(e.h.run.Clients, echo(nil, 0)) },
			want:  "",
		},
		{
			name: "client-unfinished",
			build: func(e *endHarness) {
				e.h.run.Clients = append(e.h.run.Clients, &app.EchoClient{Rounds: 10, RoundsDone: 3})
			},
			want: "client-integrity",
		},
		{
			name: "client-error",
			build: func(e *endHarness) {
				e.h.run.Clients = append(e.h.run.Clients, echo(errors.New("conn reset"), 0))
			},
			want: "client-integrity",
		},
		{
			name: "client-bad-bytes",
			build: func(e *endHarness) {
				e.h.run.Clients = append(e.h.run.Clients, echo(nil, 2))
			},
			want: "client-integrity",
		},
		{
			name: "stream-client-short-download",
			build: func(e *endHarness) {
				e.h.run.Clients = append(e.h.run.Clients, &app.StreamClient{Request: 1 << 20, Received: 4096})
			},
			want: "client-integrity",
		},
		{
			name: "takeover-latency-over-bound",
			build: func(e *endHarness) {
				// Bound is hb.Timeout + the period + 600ms = 1.4s.
				e.reg.Histogram("backup/sttcp", "sttcp.takeover_latency", nil).Observe(2 * time.Second)
			},
			want: "takeover-latency",
		},
		{
			name: "takeover-latency-at-bound",
			build: func(e *endHarness) {
				e.reg.Histogram("backup/sttcp", "sttcp.takeover_latency", nil).Observe(1400 * time.Millisecond)
			},
			want: "",
		},
		{
			name: "hold-buffer-overflow",
			build: func(e *endHarness) {
				e.reg.Gauge("primary/sttcp", "sttcp.holdbuf_bytes").Set(int64(e.h.cfg.HoldBufferSize) + 1)
			},
			want: "hold-buffer-bound",
		},
		{
			name: "takeover-span-without-suspect",
			build: func(e *endHarness) {
				id := e.h.tb.Tracer.OpenSpan(trace.KindTakeover, 0, "backup/sttcp", "took over")
				e.h.tb.Tracer.CloseSpan(id)
			},
			want: "span-integrity",
		},
		{
			name: "takeover-span-with-suspect-ancestor",
			build: func(e *endHarness) {
				det := e.h.tb.Tracer.OpenSpan(trace.KindDetection, 0, "backup/sttcp", "detecting")
				e.h.tb.Tracer.EmitIn(det, trace.KindSuspect, "backup/sttcp", 0, "peer failed")
				take := e.h.tb.Tracer.OpenSpan(trace.KindTakeover, det, "backup/sttcp", "took over")
				e.h.tb.Tracer.CloseSpan(take)
				e.h.tb.Tracer.CloseSpan(det)
			},
			want: "",
		},
		{
			name: "span-left-open",
			build: func(e *endHarness) {
				e.h.tb.Tracer.OpenSpan(trace.KindDetection, 0, "backup/sttcp", "never closed")
			},
			want: "span-integrity",
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEndHarness()
			c.build(e)
			got := e.h.endInvariants(e.reg.Snapshot())
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
