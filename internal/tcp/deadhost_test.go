package tcp_test

import (
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/tcp"
)

// TestRawRTOTimerBreaksDeadHostSilence seeds the defect the host clock
// removes: Demo 1 with the retransmission timer on the raw simulator, so
// the crashed primary keeps retransmitting. The invariant registry must
// convict the first zombie retransmission; on the host clock, Demo 1
// passes.
func TestRawRTOTimerBreaksDeadHostSilence(t *testing.T) {
	demo1, _ := experiment.DemoByName("demo1")
	run := func() error {
		_, _, err := demo1.Run(experiment.Params{Seed: 42})
		return err
	}
	if err := run(); err != nil {
		t.Fatalf("demo1 on the host clock: %v", err)
	}
	undo := tcp.SeedRawRTOTimer()
	defer undo()
	err := run()
	if err == nil {
		t.Fatal("demo1 with a raw-simulator RTO timer passed; dead-host-silence should fail it")
	}
	for _, want := range []string{"dead-host-silence: primary ", "from primary/tcp at 699."} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}
