// Package analysis is a stdlib-only static-analysis framework for the
// ST-TCP testbed, plus the domain analyzers that make the repository's
// determinism and observability conventions structural instead of
// aspirational.
//
// Everything this reproduction claims — replay-by-seed chaos campaigns,
// greedy schedule shrinking, golden milestone traces, the span-anatomy
// identity of Demo 2 — rests on conventions that are invisible to the
// compiler: no wall clock or global randomness inside sim-driven code, no
// observable work ordered by map iteration, every non-auto trace span
// closed or handed off on all paths, zero allocation on the per-segment
// hot path, no discarded harness errors. The analyzers in this package
// check those conventions at compile time; `sttcp vet` runs them from
// the command line and lint_test.go runs them under plain `go test ./...`
// so a violation fails the tier-1 gate.
//
// The framework is deliberately small: a Package loader built on
// go/parser and go/types (the "source" importer resolves the standard
// library, so there are no dependencies outside the standard library), an
// Analyzer/Pass pair modeled loosely on golang.org/x/tools/go/analysis,
// and a driver that applies the //sttcp:allow suppression directive:
//
//	foo := time.Now() //sttcp:allow simdeterminism wall budget for the campaign loop
//
// An allow names the analyzer it silences and must carry a reason; it
// applies to diagnostics on its own line or, for a comment standing alone
// on a line, to the line below. Malformed directives (unknown analyzer,
// missing reason) are themselves diagnostics, so a suppression is always
// an audited decision rather than a typo.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check. Exactly one of Run and RunModule is set:
// Run inspects a single package through its Pass, while RunModule sees
// every loaded package at once plus the static call graph — the shape
// interprocedural analyses (taint propagation, reachability) need.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass carries one (package, analyzer) execution: the parsed and
// type-checked package plus the report sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	allows *allowTable
	report func(Diagnostic)
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed files (tests excluded).
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-checker fact tables.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// TypeOf returns the static type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether an //sttcp:allow directive for this analyzer
// covers pos, marking the directive used. Analyzers call this to treat a
// site as audited (and, say, stop taint there) without reporting; the
// mark keeps such directives out of the unused-suppression audit.
func (p *Pass) Allowed(pos token.Pos) bool {
	return p.allows.allowedAt(p.Pkg.Fset.Position(pos), p.Analyzer.Name)
}

// ModulePass carries one module-wide analyzer execution: every loaded
// package, the static call graph over them, and the report sink. All
// packages share one token.FileSet (the loader guarantees it), so any
// token.Pos from any package resolves through Fset.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *callGraph

	fset   *token.FileSet
	allows *allowTable
	report func(Diagnostic)
}

// Fset returns the file set shared by every loaded package.
func (p *ModulePass) Fset() *token.FileSet { return p.fset }

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether an //sttcp:allow directive for this analyzer
// covers pos, marking the directive used (see Pass.Allowed).
func (p *ModulePass) Allowed(pos token.Pos) bool {
	return p.allows.allowedAt(p.fset.Position(pos), p.Analyzer.Name)
}

// packagePass derives a per-package Pass view sharing this module pass's
// suppression state and report sink, so module analyzers can reuse the
// intraprocedural helpers unchanged.
func (p *ModulePass) packagePass(pkg *Package) *Pass {
	return &Pass{Analyzer: p.Analyzer, Pkg: pkg, allows: p.allows, report: p.report}
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		MapOrder,
		SpanPairing,
		CtxPairing,
		PoolLifecycle,
		DaemonHygiene,
		HotPathAlloc,
		ResultErrors,
	}
}

// ByName resolves an analyzer from the suite, nil if unknown.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over the packages, applies //sttcp:allow
// suppression, validates the directives themselves, audits directives
// that suppress nothing, and returns the surviving diagnostics sorted by
// position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{allowAnalyzerName: true}
	for _, a := range Analyzers() { // directives may name any suite analyzer,
		known[a.Name] = true // even one this run does not execute
	}

	// One directive table for the whole run: module passes cross package
	// boundaries, so suppression state must too.
	table := newAllowTable()
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, table.collect(pkg, known)...)
	}
	report := func(d Diagnostic) {
		if !table.suppresses(d) {
			diags = append(diags, d)
		}
	}

	ran := map[string]bool{allowAnalyzerName: true}
	var moduleAnalyzers []*Analyzer
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.RunModule != nil {
			moduleAnalyzers = append(moduleAnalyzers, a)
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, allows: table, report: report})
		}
	}
	if len(moduleAnalyzers) > 0 && len(pkgs) > 0 {
		graph := buildCallGraph(pkgs)
		for _, a := range moduleAnalyzers {
			a.RunModule(&ModulePass{
				Analyzer: a,
				Pkgs:     pkgs,
				Graph:    graph,
				fset:     pkgs[0].Fset,
				allows:   table,
				report:   report,
			})
		}
	}

	// Suppression rot: a well-formed directive whose analyzers all ran
	// yet which never suppressed or audited anything is itself a finding.
	// It goes through report() so an unused-allow diagnostic can carry its
	// own //sttcp:allow allow audit during staged cleanups.
	for _, d := range table.unused(ran) {
		report(d)
	}

	diags = dedupeDiagnostics(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// dedupeDiagnostics drops exact repeats (same analyzer, position, and
// message). Overlapping load patterns can visit a package twice, which
// used to double-report malformed //sttcp:allow directives; identity
// dedupe makes every finding print exactly once regardless of how the
// package set was assembled.
func dedupeDiagnostics(diags []Diagnostic) []Diagnostic {
	seen := make(map[Diagnostic]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}
