package analysis

import "testing"

// TestRepoLintsClean runs the full `sttcp vet` suite over the real source
// tree. Any diagnostic here fails tier-1 `go test ./...`, which is the
// point: determinism (no wall clock, no map-ordered output), hot-path
// allocation discipline, undiscarded harness errors and audited, unstale
// //sttcp:allow directives are part of the build contract, not an
// optional extra pass.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree type checking is slow; skipped in -short mode")
	}
	loader, err := NewLoader("../..", "")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d.String())
	}
}
