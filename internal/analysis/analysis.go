// Package analysis is a stdlib-only static-analysis framework for the
// ST-TCP testbed, plus the four domain analyzers that check what a run
// cannot show.
//
// Everything this reproduction claims — replay-by-seed chaos campaigns,
// greedy schedule shrinking, golden milestone traces, the span-anatomy
// identity of Demo 2 — is judged by observing deterministic runs, and
// most conventions are held by a test or a chaos invariant that fails
// when they are broken. An analyzer earns its place only where that
// cannot work: no deterministic test can observe a wall-clock read,
// global randomness, a goroutine or a second event queue in sim-driven
// code (simdeterminism), nor observable work ordered by Go's randomised
// map iteration (maporder); and two analyzers make a decision the tests
// do not — hotpathalloc names the expression behind a per-segment
// allocation regression, resulterrors finds a discarded harness error
// that would turn a failed run into a passed one. `sttcp vet` runs the
// four from the command line and lint_test.go runs them under plain
// `go test ./...` so a violation fails the tier-1 gate. Span pairing,
// causal-context restore, frame-pool lifetimes and daemon-tick hygiene
// are deterministic runtime faults at a handful of call sites, so tests
// hold them, not analyzers — DESIGN.md §10 names them.
//
// The framework is deliberately small: a Package loader built on
// go/parser and go/types (the "source" importer resolves the standard
// library, so there are no dependencies outside the standard library), a
// static call graph, an Analyzer/ModulePass pair modeled loosely on
// golang.org/x/tools/go/analysis, and a driver that applies the
// //sttcp:allow suppression directive:
//
//	return time.Now() //sttcp:allow simdeterminism host-time measurement, never fed to an event loop
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

// Analyzer is one named check. Run sees every loaded package at once
// plus the static call graph — the shape interprocedural analyses (taint
// propagation, reachability) need; a check that is local to a package
// loops over ModulePass.Pkgs and takes each one's packagePass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// ModulePass carries one analyzer execution: every loaded package, the
// static call graph over them, and the report sink. All packages share
// one token.FileSet (the loader guarantees it), so any token.Pos from any
// package resolves through Fset.
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
// covers pos, marking the directive used. Analyzers call this to treat a
// site as audited (and, say, stop taint there) without reporting; the
// mark keeps such directives out of the unused-suppression audit.
func (p *ModulePass) Allowed(pos token.Pos) bool {
	return p.allows.allowedAt(p.fset.Position(pos), p.Analyzer.Name)
}

// Pass is one package's view of a ModulePass: the same report sink and
// suppression state, plus the package's type-checker facts, so the
// intraprocedural helpers take a single handle.
type Pass struct {
	*ModulePass
	Pkg *Package
}

func (p *ModulePass) packagePass(pkg *Package) *Pass { return &Pass{p, pkg} }

// TypeOf returns the static type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{SimDeterminism, MapOrder, HotPathAlloc, ResultErrors}
}

// Run executes the analyzers over the packages, applies //sttcp:allow
// suppression, validates the directives themselves, audits directives
// that suppress nothing, and returns the surviving diagnostics sorted by
// position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
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
	graph := buildCallGraph(pkgs)
	for _, a := range analyzers {
		ran[a.Name] = true
		a.Run(&ModulePass{Analyzer: a, Pkgs: pkgs, Graph: graph, fset: pkgs[0].Fset, allows: table, report: report})
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
