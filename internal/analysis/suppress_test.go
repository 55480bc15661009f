package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

var testKnown = map[string]bool{
	"simdeterminism": true,
	"maporder":       true,
	"resulterrors":   true,
}

func TestParseAllow(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name      string
		text      string
		directive bool     // ok: the comment is an allow directive at all
		analyzers []string // nil when malformed
		malformed string   // expected malformed message, "" for well-formed
	}{
		{
			name:      "single analyzer with reason",
			text:      "//sttcp:allow simdeterminism wall budget for the campaign loop",
			directive: true,
			analyzers: []string{"simdeterminism"},
		},
		{
			name:      "comma-separated analyzers share one directive",
			text:      "//sttcp:allow simdeterminism,maporder one audit covers both",
			directive: true,
			analyzers: []string{"simdeterminism", "maporder"},
		},
		{
			name:      "tab after the prefix",
			text:      "//sttcp:allow\tmaporder tabs separate fields too",
			directive: true,
			analyzers: []string{"maporder"},
		},
		{
			name:      "trailing CR from a CRLF file is whitespace",
			text:      "//sttcp:allow simdeterminism crlf corpus line\r",
			directive: true,
			analyzers: []string{"simdeterminism"},
		},
		{
			name:      "reason stops at an embedded comment marker",
			text:      "//sttcp:allow simdeterminism // no real reason before the marker",
			directive: true,
			malformed: "sttcp:allow simdeterminism is missing a reason",
		},
		{
			name:      "bare directive",
			text:      "//sttcp:allow",
			directive: true,
			malformed: "sttcp:allow needs an analyzer name and a reason",
		},
		{
			name:      "unknown analyzer",
			text:      "//sttcp:allow nosuchanalyzer because reasons",
			directive: true,
			malformed: "sttcp:allow names unknown analyzer nosuchanalyzer",
		},
		{
			name:      "empty name from a double comma",
			text:      "//sttcp:allow simdeterminism,,maporder double comma",
			directive: true,
			malformed: "sttcp:allow has an empty analyzer name in simdeterminism,,maporder",
		},
		{
			name:      "missing reason",
			text:      "//sttcp:allow maporder",
			directive: true,
			malformed: "sttcp:allow maporder is missing a reason",
		},
		{
			name:      "other sttcp marker is not a directive",
			text:      "//sttcp:allowlist something else entirely",
			directive: false,
		},
		{
			name:      "unrelated comment",
			text:      "// plain prose",
			directive: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, ok := parseAllow(tc.text, testKnown)
			if ok != tc.directive {
				t.Fatalf("parseAllow(%q) ok = %v, want %v", tc.text, ok, tc.directive)
			}
			if !ok {
				return
			}
			if p.malformed != tc.malformed {
				t.Fatalf("parseAllow(%q) malformed = %q, want %q", tc.text, p.malformed, tc.malformed)
			}
			if len(p.analyzers) != len(tc.analyzers) {
				t.Fatalf("parseAllow(%q) analyzers = %v, want %v", tc.text, p.analyzers, tc.analyzers)
			}
			for i := range p.analyzers {
				if p.analyzers[i] != tc.analyzers[i] {
					t.Fatalf("parseAllow(%q) analyzers = %v, want %v", tc.text, p.analyzers, tc.analyzers)
				}
			}
		})
	}
}

// parsePackage builds the minimal Package collect needs (parsed files and
// a file set; no type-checking).
func parsePackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{Path: "example.com/p", Fset: fset, Files: []*ast.File{f}}
}

func TestCollectCoversOwnLineAndLineBelow(t *testing.T) {
	t.Parallel()
	src := "package p\n" + // line 1
		"\n" +
		"func f() {\n" + // line 3
		"\t_ = 1 //sttcp:allow simdeterminism trailing directive\n" + // line 4
		"\t//sttcp:allow maporder standalone directive above the code\n" + // line 5
		"\t_ = 2\n" + // line 6
		"}\n"
	pkg := parsePackage(t, src)
	table := newAllowTable()
	if diags := table.collect(pkg, testKnown); len(diags) != 0 {
		t.Fatalf("collect returned %d diagnostics, want 0: %v", len(diags), diags)
	}

	covered := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "simdeterminism", true},  // the directive's own line
		{5, "simdeterminism", true},  // the line below a trailing directive
		{6, "simdeterminism", false}, // two lines below: out of range
		{5, "maporder", true},        // standalone directive's own line
		{6, "maporder", true},        // the code it stands above
		{4, "maporder", false},       // the line above it
		{4, "resulterrors", false},   // an analyzer the directive does not name
	}
	for _, c := range covered {
		got := table.hit("allow.go", c.line, c.analyzer)
		if got != c.want {
			t.Errorf("hit(line %d, %s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

func TestCollectMalformedNeverEntersTable(t *testing.T) {
	t.Parallel()
	src := "package p\n" +
		"\n" +
		"func f() {\n" +
		"\t_ = 1 //sttcp:allow nosuchanalyzer reason text\n" +
		"}\n"
	pkg := parsePackage(t, src)
	table := newAllowTable()
	diags := table.collect(pkg, testKnown)
	if len(diags) != 1 {
		t.Fatalf("collect returned %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != allowAnalyzerName {
		t.Errorf("malformed diagnostic analyzer = %q, want %q", diags[0].Analyzer, allowAnalyzerName)
	}
	if want := "sttcp:allow names unknown analyzer nosuchanalyzer"; diags[0].Message != want {
		t.Errorf("malformed diagnostic message = %q, want %q", diags[0].Message, want)
	}
	if len(table.all) != 0 {
		t.Errorf("malformed directive entered the table: %d entries", len(table.all))
	}
}

func TestUnusedReportsOnlyJudgeableDirectives(t *testing.T) {
	t.Parallel()
	src := "package p\n" +
		"\n" +
		"func f() {\n" +
		"\t_ = 1 //sttcp:allow simdeterminism this one will be hit\n" +
		"\t_ = 2 //sttcp:allow maporder this one goes stale\n" +
		"\t_ = 3 //sttcp:allow resulterrors names an analyzer that did not run\n" +
		"\t_ = 4 //sttcp:allow simdeterminism,resulterrors mixed: one name did not run\n" +
		"}\n"
	pkg := parsePackage(t, src)
	table := newAllowTable()
	if diags := table.collect(pkg, testKnown); len(diags) != 0 {
		t.Fatalf("collect returned unexpected diagnostics: %v", diags)
	}
	if !table.hit("allow.go", 4, "simdeterminism") {
		t.Fatal("expected the line-4 directive to be hit")
	}

	ran := map[string]bool{"simdeterminism": true, "maporder": true, allowAnalyzerName: true}
	stale := table.unused(ran)
	if len(stale) != 1 {
		t.Fatalf("unused returned %d diagnostics, want 1: %v", len(stale), stale)
	}
	if stale[0].Pos.Line != 5 {
		t.Errorf("stale diagnostic at line %d, want 5", stale[0].Pos.Line)
	}
	if want := "sttcp:allow maporder suppresses nothing: remove the stale directive or fix the audit"; stale[0].Message != want {
		t.Errorf("stale message = %q, want %q", stale[0].Message, want)
	}
}

func TestDedupeDiagnostics(t *testing.T) {
	t.Parallel()
	d1 := Diagnostic{Analyzer: "allow", Pos: token.Position{Filename: "a.go", Line: 3, Column: 1}, Message: "m"}
	d2 := Diagnostic{Analyzer: "allow", Pos: token.Position{Filename: "a.go", Line: 4, Column: 1}, Message: "m"}
	got := dedupeDiagnostics([]Diagnostic{d1, d2, d1, d2, d1})
	if len(got) != 2 {
		t.Fatalf("dedupe kept %d diagnostics, want 2: %v", len(got), got)
	}
	if got[0] != d1 || got[1] != d2 {
		t.Errorf("dedupe reordered diagnostics: %v", got)
	}
}
