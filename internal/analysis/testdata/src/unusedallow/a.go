// Corpus for suppression rot: a well-formed //sttcp:allow whose named
// analyzers all ran yet which suppressed nothing is itself a diagnostic.
// Directives naming analyzers that did not run are not judged, and
// malformed directives are reported exactly once, as malformed.
package unusedallow

import (
	"time"

	"example.com/vet/internal/sim"
)

var _ = sim.NewRand // imports internal/sim, so simdeterminism applies here

func live() {
	_ = time.Now() //sttcp:allow simdeterminism corpus demo of a live suppression
}

func liveMulti() {
	//sttcp:allow simdeterminism,maporder one directive may cover several analyzers
	_ = time.Now()
}

func stale() {
	//sttcp:allow simdeterminism nothing on the next line trips the analyzer anymore // want `sttcp:allow simdeterminism suppresses nothing: remove the stale directive or fix the audit`
	_ = 1
}

func notJudgeable() {
	//sttcp:allow hotpathalloc that analyzer did not run, so staleness cannot be judged
	_ = 2
}

func malformedBare() {
	_ = 3 //sttcp:allow // want `sttcp:allow needs an analyzer name and a reason`
}

func malformedUnknown() {
	_ = 4 //sttcp:allow nosuchanalyzer some reason // want `sttcp:allow names unknown analyzer nosuchanalyzer`
}

func malformedEmptyName() {
	_ = 5 //sttcp:allow simdeterminism,, double comma // want `sttcp:allow has an empty analyzer name in simdeterminism,,`
}
