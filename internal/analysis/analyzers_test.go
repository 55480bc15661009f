package analysis

import (
	"path/filepath"
	"testing"
)

// runCorpus checks one testdata corpus package against its // want
// expectation comments using the given analyzers.
func runCorpus(t *testing.T, pattern string, analyzers ...*Analyzer) {
	t.Helper()
	problems, err := checkExpectations(filepath.Join("testdata", "src"), "example.com/vet", []string{pattern}, analyzers...)
	if err != nil {
		t.Fatalf("corpus %s: %v", pattern, err)
	}
	for _, p := range problems {
		t.Errorf("%s", p)
	}
}

func TestSimDeterminismCorpus(t *testing.T) {
	t.Parallel()
	runCorpus(t, "./simdeterminism/...", SimDeterminism)
}

func TestMapOrderCorpus(t *testing.T) {
	t.Parallel()
	runCorpus(t, "./maporder", MapOrder)
}

func TestHotPathAllocCorpus(t *testing.T) {
	t.Parallel()
	runCorpus(t, "./hotpathalloc", HotPathAlloc)
}

func TestResultErrorsCorpus(t *testing.T) {
	t.Parallel()
	runCorpus(t, "./resulterrors", ResultErrors)
}

func TestAllowDirectiveCorpus(t *testing.T) {
	t.Parallel()
	runCorpus(t, "./allowdir", SimDeterminism)
}

// TestUnusedAllowCorpus runs two analyzers so the staleness audit can
// judge directives naming either (or both): a directive is only reported
// stale when every analyzer it names actually executed.
func TestUnusedAllowCorpus(t *testing.T) {
	t.Parallel()
	runCorpus(t, "./unusedallow", SimDeterminism, MapOrder)
}
