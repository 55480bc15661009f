package analysis

import (
	"go/token"
	"strings"
)

// allowAnalyzerName attributes diagnostics about //sttcp:allow directives
// themselves: malformed ones and stale ones that suppress nothing.
const allowAnalyzerName = "allow"

const allowPrefix = "//sttcp:allow"

// allowKey locates one suppression: a file plus the line the suppressed
// diagnostic must sit on, per analyzer.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowDirective is one parsed //sttcp:allow comment. A directive may
// name several analyzers (comma-separated); it is "used" once any of
// them either had a diagnostic suppressed by it or consulted it to stop
// an analysis (e.g. a taint source that an allow declares audited).
type allowDirective struct {
	pos       token.Position
	analyzers []string
	used      bool
}

// allowTable indexes every well-formed directive in the run. Lookups
// mark directives used so the driver can report suppression rot — a
// directive whose analyzers all ran yet which suppressed nothing.
type allowTable struct {
	byKey map[allowKey][]*allowDirective
	all   []*allowDirective
}

func newAllowTable() *allowTable {
	return &allowTable{byKey: map[allowKey][]*allowDirective{}}
}

// hit looks up directives covering (file, line, analyzer) and marks them
// used.
func (t *allowTable) hit(file string, line int, analyzer string) bool {
	ds := t.byKey[allowKey{file, line, analyzer}]
	for _, d := range ds {
		d.used = true
	}
	return len(ds) > 0
}

// suppresses reports (and records) whether a directive covers d.
func (t *allowTable) suppresses(d Diagnostic) bool {
	return t.hit(d.Pos.Filename, d.Pos.Line, d.Analyzer)
}

// unused returns a diagnostic for every directive that suppressed
// nothing, restricted to directives whose named analyzers all executed
// this run (a corpus run with one analyzer cannot judge a directive
// naming another). Malformed directives never enter the table, so they
// are reported exactly once, as malformed.
func (t *allowTable) unused(ran map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, d := range t.all {
		if d.used {
			continue
		}
		judgeable := true
		for _, name := range d.analyzers {
			if !ran[name] {
				judgeable = false
				break
			}
		}
		if !judgeable {
			continue
		}
		diags = append(diags, Diagnostic{
			Analyzer: allowAnalyzerName,
			Pos:      d.pos,
			Message:  "sttcp:allow " + strings.Join(d.analyzers, ",") + " suppresses nothing: remove the stale directive or fix the audit",
		})
	}
	return diags
}

// parsedAllow is the outcome of parsing one comment's directive text,
// split out from collection so the parser is table-testable on raw
// strings.
type parsedAllow struct {
	analyzers []string // nil when malformed
	malformed string   // non-empty: the diagnostic message
}

// parseAllow parses the text after the //sttcp:allow prefix. A directive
// reads
//
//	//sttcp:allow <analyzer>[,<analyzer>...] <reason...>
//
// The reason runs to the end of the comment or to an embedded "//"
// marker. Directives naming an unknown analyzer or carrying no reason
// are malformed: a suppression must be an auditable decision, not a
// typo. ok=false means the comment is some other sttcp:allow* marker,
// not a directive at all.
func parseAllow(text string, known map[string]bool) (p parsedAllow, ok bool) {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok {
		return parsedAllow{}, false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return parsedAllow{}, false // some other sttcp:allow* directive
	}
	fields := strings.Fields(rest)
	for i, f := range fields {
		if strings.HasPrefix(f, "//") {
			fields = fields[:i]
			break
		}
	}
	if len(fields) == 0 {
		return parsedAllow{malformed: "sttcp:allow needs an analyzer name and a reason"}, true
	}
	names := strings.Split(fields[0], ",")
	for _, name := range names {
		if name == "" {
			return parsedAllow{malformed: "sttcp:allow has an empty analyzer name in " + fields[0]}, true
		}
		if !known[name] {
			return parsedAllow{malformed: "sttcp:allow names unknown analyzer " + name}, true
		}
	}
	if len(fields) < 2 {
		return parsedAllow{malformed: "sttcp:allow " + fields[0] + " is missing a reason"}, true
	}
	return parsedAllow{analyzers: names}, true
}

// collect scans a package's comments for //sttcp:allow directives,
// registering well-formed ones in the table. A directive suppresses
// diagnostics of its analyzers on the directive's own line (trailing
// comment) and on the line below (comment standing alone above the code
// it excuses). Malformed directives are returned as diagnostics of the
// "allow" pseudo-analyzer.
func (t *allowTable) collect(pkg *Package, known map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				p, ok := parseAllow(c.Text, known)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if p.malformed != "" {
					diags = append(diags, Diagnostic{
						Analyzer: allowAnalyzerName,
						Pos:      pos,
						Message:  p.malformed,
					})
					continue
				}
				d := &allowDirective{pos: pos, analyzers: p.analyzers}
				t.all = append(t.all, d)
				for _, name := range p.analyzers {
					t.byKey[allowKey{pos.Filename, pos.Line, name}] = append(t.byKey[allowKey{pos.Filename, pos.Line, name}], d)
					t.byKey[allowKey{pos.Filename, pos.Line + 1, name}] = append(t.byKey[allowKey{pos.Filename, pos.Line + 1, name}], d)
				}
			}
		}
	}
	return diags
}
