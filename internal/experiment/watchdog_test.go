package experiment

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// watchdogFixture builds the testbed with an echo session that goes idle
// after a burst of activity, then crashes the primary application silently
// during the idle period. This is exactly the blind spot §4.2.1 concedes:
// "if there is no activity on the connection, failure detection may be
// delayed … detected when the connection is used again." With hostCrash,
// the primary's whole host crashes instead. The primary's watchdog is
// returned (nil without one).
func watchdogFixture(t *testing.T, seed int64, withWatchdog, hostCrash bool) (*Testbed, *app.EchoClient, *sttcp.Watchdog) {
	t.Helper()
	tb := Build(Options{Seed: seed})
	if err := tb.StartSTTCP(0, nil); err != nil {
		t.Fatalf("start: %v", err)
	}
	pSrv := app.NewEchoServer("primary/app", tb.Tracer)
	bSrv := app.NewEchoServer("backup/app", tb.Tracer)
	tb.PrimaryNode.OnAccept = pSrv.Accept
	tb.BackupNode.OnAccept = bSrv.Accept

	var wd *sttcp.Watchdog
	if withWatchdog {
		wd = sttcp.NewWatchdog(tb.Primary.Clock(), "primary/watchdog", time.Second, tb.Tracer)
		wd.OnSuspect = tb.PrimaryNode.ReportLocalAppFailure
		pSrv.StartHealthBeats(tb.Primary.Clock(), 250*time.Millisecond, wd.Beat)
		// The backup's application gets a watchdog too (symmetry).
		wdB := sttcp.NewWatchdog(tb.Backup.Clock(), "backup/watchdog", time.Second, tb.Tracer)
		wdB.OnSuspect = tb.BackupNode.ReportLocalAppFailure
		bSrv.StartHealthBeats(tb.Backup.Clock(), 250*time.Millisecond, wdB.Beat)
	}

	// 50 quick echo rounds, then a long idle gap before the final
	// rounds.
	cl := app.NewEchoClient("client/app", tb.Client.TCP(), ServiceAddr, ServicePort, 60, 512, tb.Tracer)
	cl.Gap = 2 * time.Millisecond
	if err := cl.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	// Crash the primary's application at t=1s. The client is configured
	// below to go quiet from roughly t≈0.2s (after ~50 rounds) until
	// t=15s, so the TCP layer sees no activity around the crash.
	tb.Sim.Schedule(200*time.Millisecond, func() { cl.Gap = 20 * time.Second })
	crash := pSrv.CrashSilent
	if hostCrash {
		crash = tb.Primary.CrashHW
	}
	tb.Sim.Schedule(time.Second, crash)
	return tb, cl, wd
}

// TestIdleAppCrashUndetectedWithoutWatchdog reproduces the paper's caveat:
// with no connection activity and no watchdog, the silent application
// crash goes unnoticed for the whole idle period.
func TestIdleAppCrashUndetectedWithoutWatchdog(t *testing.T) {
	tb, _, _ := watchdogFixture(t, 81, false, false)
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if tb.Tracer.Has(trace.KindSuspect) {
		t.Fatalf("failure detected with no activity and no watchdog — unexpected:\n%s", tailStr(tb.Tracer.Dump()))
	}
	if tb.BackupNode.State() != sttcp.StateActive {
		t.Fatalf("backup state %v during idle period", tb.BackupNode.State())
	}
}

// TestIdleAppCrashDetectedByWatchdog checks the §4.2.2 watchdog extension
// closes the gap: the failure is flagged within the watchdog timeout plus
// one heartbeat, long before any connection activity.
func TestIdleAppCrashDetectedByWatchdog(t *testing.T) {
	tb, _, _ := watchdogFixture(t, 81, true, false)
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	e, ok := tb.Tracer.First(trace.KindTakeover)
	if !ok {
		t.Fatalf("watchdog did not trigger a takeover:\n%s", tailStr(tb.Tracer.Dump()))
	}
	// Crash at 1s; watchdog timeout 1s; + heartbeat latency.
	detectAt := e.Time.Sub(tb.Sim.Now().Add(-10 * time.Second)) // time since start
	if detectAt > 3*time.Second {
		t.Fatalf("watchdog takeover at t=%v, want within ~2s of the crash", detectAt)
	}
	if tb.BackupNode.State() != sttcp.StateTakenOver {
		t.Fatalf("backup state %v", tb.BackupNode.State())
	}
	if !tb.Primary.Crashed() {
		t.Fatal("primary not powered down")
	}
}

// TestWatchdogFailoverCompletesSession runs the idle-crash scenario to the
// end: after the watchdog-triggered takeover, the client resumes activity
// and the remaining echo rounds complete against the promoted backup.
func TestWatchdogFailoverCompletesSession(t *testing.T) {
	tb, cl, _ := watchdogFixture(t, 82, true, false)
	// Resume activity at t=15s (after cl.Gap's scheduled round fires).
	if err := tb.Run(5 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cl.Done || cl.Err != nil || cl.VerifyFailures != 0 {
		t.Fatalf("client: done=%v err=%v rounds=%d\n%s", cl.Done, cl.Err, cl.RoundsDone, tailStr(tb.Tracer.Dump()))
	}
	if cl.RoundsDone != 60 {
		t.Fatalf("rounds = %d, want 60", cl.RoundsDone)
	}
}

// TestHealthBeatsStopWithTheHost crashes the primary's host, not its
// application: the health beats run on the host's clock, so they stop with
// everything else the host ran, and the watchdog hears none after 1 s.
func TestHealthBeatsStopWithTheHost(t *testing.T) {
	tb, _, wd := watchdogFixture(t, 81, true, true)
	if err := tb.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	beats := wd.Beats()
	if err := tb.Run(4 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := wd.Beats(); got != beats {
		t.Fatalf("the crashed primary's application beat its watchdog %d times after the crash", got-beats)
	}
}

// TestWatchdogUnit exercises the Watchdog type directly.
func TestWatchdogUnit(t *testing.T) {
	tb := Build(Options{Seed: 83})
	fired := 0
	wd := sttcp.NewWatchdog(tb.Primary.Clock(), "wd", 500*time.Millisecond, tb.Tracer)
	wd.OnSuspect = func() { fired++ }
	wd.Beat()
	// Beats at 400ms and 800ms keep it alive past two would-be
	// deadlines.
	tb.Sim.Schedule(400*time.Millisecond, wd.Beat)
	tb.Sim.Schedule(800*time.Millisecond, wd.Beat)
	_ = tb.Run(1200 * time.Millisecond)
	if fired != 0 || wd.Expired() {
		t.Fatalf("watchdog fired despite beats (fired=%d)", fired)
	}
	if wd.Beats() != 3 {
		t.Fatalf("beats = %d", wd.Beats())
	}
	// Silence now: expires once, and only once.
	_ = tb.Run(2 * time.Second)
	if fired != 1 || !wd.Expired() {
		t.Fatalf("fired = %d, expired = %v", fired, wd.Expired())
	}
	wd.Beat() // post-expiry beats are ignored
	_ = tb.Run(time.Second)
	if fired != 1 {
		t.Fatalf("expired watchdog fired again")
	}
}
