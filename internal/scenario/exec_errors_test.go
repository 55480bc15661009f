package scenario

import (
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestInjectionErrors exercises the fault-injection error paths:
// injections that cannot take effect must fail the run loudly instead of
// silently doing nothing and letting the expectations judge a different
// experiment than the one the script asked for.
func TestInjectionErrors(t *testing.T) {
	cases := []struct {
		name    string
		script  string
		wantErr string // substring of Run's error; "" means Run must succeed
		wantRT  string // substring required in Result.Errors; "" means none
	}{
		{
			name: "appcrash on gateway",
			script: "client download 1MiB\n" +
				"at 100ms appcrash gateway silent\n" +
				"run 5s\n",
			wantErr: "runs no server application",
		},
		{
			name: "appcrash on client",
			script: "client download 1MiB\n" +
				"at 100ms appcrash client cleanup\n" +
				"run 5s\n",
			wantErr: "runs no server application",
		},
		{
			name: "appcrash on absent witness",
			script: "client download 1MiB\n" +
				"at 100ms appcrash witness silent\n" +
				"run 5s\n",
			wantErr: "not present in this topology",
		},
		{
			// Build connects the witness to the switch like every other
			// host; the lab used to discard the link and refuse this.
			name: "drop on witness link",
			script: "option witness\n" +
				"client download 1MiB\n" +
				"at 100ms drop witness 200ms\n" +
				"run 5s\n" +
				"expect clients-done\n",
		},
		{
			name: "drop on absent witness",
			script: "client download 1MiB\n" +
				"at 100ms drop witness 200ms\n" +
				"run 5s\n",
			wantErr: "not present in this topology",
		},
		{
			// Sim.At clamps the past to now: this used to fire at 2s
			// without a word.
			name: "at in the past",
			script: "client download 1MiB\n" +
				"run 2s\n" +
				"at 1s crash primary\n" +
				"run 5s\n",
			wantErr: "line 3: at 1s is in the past",
		},
		{
			name: "at the current instant",
			script: "client download 1MiB\n" +
				"run 2s\n" +
				"at 2s crash backup\n" +
				"run 5s\n" +
				"expect non-ft\n",
		},
		{
			name: "drop with negative duration",
			script: "client download 1MiB\n" +
				"at 100ms drop client -100ms\n" +
				"run 5s\n",
			wantErr: "must be positive",
		},
		{
			name: "rejoin without takeover",
			script: "client download 1MiB\n" +
				"at 100ms rejoin\n" +
				"run 5s\n" +
				"expect clients-done\n",
			wantRT: "want taken-over",
		},
		{
			name: "clean script",
			script: "client download 1MiB\n" +
				"run 5s\n" +
				"expect clients-done\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse(tc.script)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := Run(sc, experiment.Options{})
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("Run succeeded, want error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Run error %q, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if tc.wantRT != "" {
				if len(res.Errors) == 0 {
					t.Fatalf("no runtime injection errors recorded, want one containing %q", tc.wantRT)
				}
				if !strings.Contains(res.Errors[0], tc.wantRT) {
					t.Fatalf("runtime error %q, want it to contain %q", res.Errors[0], tc.wantRT)
				}
				if res.OK() {
					t.Fatal("Result.OK() = true despite injection errors")
				}
				return
			}
			if len(res.Errors) != 0 {
				t.Fatalf("unexpected runtime errors: %v", res.Errors)
			}
			if !res.OK() {
				t.Fatalf("clean script failed: %+v", res.Checks)
			}
		})
	}
}
