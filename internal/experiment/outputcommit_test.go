package experiment

import (
	"testing"
)

// TestOutputCommitWithoutLoggerIsUnrecoverable reproduces the limitation
// the paper states in §4.3: if the primary crashes while the backup is
// missing client bytes the primary already acknowledged, ST-TCP treats the
// failure as unrecoverable — the client will not retransmit acknowledged
// bytes, so the session wedges after takeover.
func TestOutputCommitWithoutLoggerIsUnrecoverable(t *testing.T) {
	run, err := runOutputCommit(Options{Seed: 61}, false)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	res := run.outputCommit()
	if !res.TookOver {
		t.Fatalf("backup never took over — scenario did not trigger")
	}
	if res.ClientDone {
		t.Fatalf("client completed (%d rounds) — the output-commit gap was supposed to wedge the session; scenario broken",
			res.RoundsDone)
	}
	t.Logf("as the paper predicts: session wedged after %d rounds", res.RoundsDone)
}

// TestOutputCommitWithLoggerRecovers checks the paper's proposed fix: with
// the logger machine tapping the client stream, the backup retrieves the
// acknowledged-but-missed bytes at takeover and the session completes.
func TestOutputCommitWithLoggerRecovers(t *testing.T) {
	run, err := runOutputCommit(Options{Seed: 61}, true)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	res := run.outputCommit()
	if !res.TookOver {
		t.Fatalf("backup never took over — scenario did not trigger")
	}
	if res.LoggerServed == 0 {
		t.Fatalf("logger never served recovery data\n%s", tailStr(run.Testbed.Tracer.Dump()))
	}
	if !res.ClientDone {
		t.Fatalf("client did not complete despite the logger (rounds=%d, err=%v)\n%s",
			res.RoundsDone, res.ClientErr, tailStr(run.Testbed.Tracer.Dump()))
	}
	t.Logf("logger served %d recovery datagram(s); all %d rounds completed", res.LoggerServed, res.RoundsDone)
}
