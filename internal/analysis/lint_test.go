package analysis

import (
	"maps"
	"slices"
	"testing"
)

// TestRepoLintsClean runs the full `sttcp vet` suite over the real source
// tree. Any diagnostic here fails tier-1 `go test ./...`, which is the
// point: determinism (no wall clock, no map-ordered output), undiscarded
// harness errors, the structural rules and audited, unstale //sttcp:allow
// directives are part of the build contract, not an optional extra pass.
//
// It also pins the allow census: the well-formed directives of the
// table Run suppresses with, per analyzer they name. An exception added
// or removed is a deliberate change to allowCensus and to ROADMAP's
// instruments line; `make allows` prints this test's log.
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

	table, known := newAllowTable(), allowable()
	for _, pkg := range pkgs {
		table.collect(pkg, known) // malformed directives are Run's diagnostics above
	}
	census := map[string]int{}
	var names []string
	for _, d := range table.all {
		for _, name := range d.analyzers {
			if census[name]++; census[name] == 1 {
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	for _, name := range names {
		t.Logf("%7d //sttcp:allow %s", census[name], name)
	}
	if allowCensus := map[string]int{"simdeterminism": 3}; !maps.Equal(census, allowCensus) {
		t.Errorf("allow census %v, want %v", census, allowCensus)
	}
}
