// Corpus for the //sttcp:allow directive: a well-formed allow silences
// exactly its analyzer on its line (or the line below, for a standalone
// comment); a malformed one is itself a diagnostic and silences nothing.
package allowdir

import (
	"time"

	"example.com/vet/internal/sim"
)

var _ = sim.NewRand // imports internal/sim, so simdeterminism applies here

func suppressedTrailing() {
	_ = time.Now() //sttcp:allow simdeterminism corpus demo of an audited wall-clock read
}

func suppressedStandalone() {
	//sttcp:allow simdeterminism corpus demo of a standalone allow comment
	_ = time.Now()
}

func wrongAnalyzer() {
	_ = time.Now() //sttcp:allow nosuchanalyzer typo in the name // want `sttcp:allow names unknown analyzer nosuchanalyzer` `time\.Now in sim-driven code`
}

func missingReason() {
	_ = time.Now() //sttcp:allow simdeterminism // want `sttcp:allow simdeterminism is missing a reason` `time\.Now in sim-driven code`
}

func wrongAnalyzerDoesNotSuppress() {
	//sttcp:allow maporder an allow for one analyzer must not silence another
	_ = time.Now() // want `time\.Now in sim-driven code`
}
