package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// forbiddenTimeFuncs are the wall-clock entry points that break
// replay-by-seed: virtual time must come from sim.Simulator.Now and
// friends, and nothing inside a simulation may block on the real clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// randConstructors may only appear at the audited seeding point
// (sim.NewRand); everywhere else a *rand.Rand must be injected so all
// randomness in a run flows from the run's single seed.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
}

// SimDeterminism forbids wall-clock time, global math/rand state, ad-hoc
// rand constructors, and raw goroutine spawns in sim-driven packages —
// any package in the transitive import closure of internal/sim (or
// internal/sim itself). One stray time.Now or rand.Intn silently
// decouples a run from its seed; a goroutine breaks the single-threaded
// event-loop contract the whole testbed (and its lock-free metrics)
// relies on. Wall-clock budget code (the chaos campaign loop) carries
// audited //sttcp:allow directives.
//
// v2 is interprocedural: a sim-driven package calling a helper in a
// non-sim-driven package whose call chain reaches time.Now is flagged at
// the boundary call site, with the taint's root named in the message. An
// //sttcp:allow simdeterminism directive on the root operation declares
// the source audited and stops the taint (and counts as a used
// suppression).
//
// It also forbids implementing the sim.Scheduler interface outside
// internal/sim: a second event queue is a second tie-break authority the
// scheduler differential suite never sees. internal/explore is the one
// audited carve-out — its forking wrapper exists precisely to surface
// tie-break nondeterminism, and the differential and fuzz suites hold it
// to the scheduler contract.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock time, global randomness, and goroutines in sim-driven packages, including through call chains",
	Run:  runSimDeterminism,
}

// simDrivenSet computes which loaded packages are sim-driven: internal/sim
// itself, internal/sweep (in jurisdiction by name: it is the audited
// goroutine boundary of checkSimDirect whether or not it imports the
// simulators its jobs build) plus everything that transitively imports
// either. The transitive
// closure is the point of v2 — a command driving chaos campaigns is as
// replay-sensitive as the campaign package it imports.
func simDrivenSet(pkgs []*Package) map[*Package]bool {
	memo := map[*types.Package]bool{}
	var reaches func(p *types.Package) bool
	reaches = func(p *types.Package) bool {
		if v, ok := memo[p]; ok {
			return v
		}
		memo[p] = false // cycle guard; import graphs are acyclic anyway
		if pkgPathHasSuffix(p.Path(), "internal/sim") || pkgPathHasSuffix(p.Path(), "internal/sweep") {
			memo[p] = true
			return true
		}
		for _, imp := range p.Imports() {
			if reaches(imp) {
				memo[p] = true
				return true
			}
		}
		return false
	}
	driven := map[*Package]bool{}
	for _, pkg := range pkgs {
		if reaches(pkg.Types) {
			driven[pkg] = true
		}
	}
	return driven
}

// simSchedulerInterface resolves the sim.Scheduler interface from the
// package's direct imports, nil if unavailable.
func simSchedulerInterface(pkg *Package) *types.Interface {
	for _, imp := range pkg.Types.Imports() {
		if pkgPathHasSuffix(imp.Path(), "internal/sim") {
			tn, ok := imp.Scope().Lookup("Scheduler").(*types.TypeName)
			if !ok {
				return nil
			}
			i, _ := types.Unalias(tn.Type()).Underlying().(*types.Interface)
			return i
		}
	}
	return nil
}

func runSimDeterminism(mp *ModulePass) {
	driven := simDrivenSet(mp.Pkgs)
	for _, pkg := range mp.Pkgs {
		if driven[pkg] {
			checkSimDirect(mp, pkg)
		}
	}
	reportDeterminismTaint(mp, driven)
}

// checkSimDirect runs the intraprocedural rules over one sim-driven
// package: no direct wall-clock/rand/goroutine use, no private event
// ordering.
func checkSimDirect(mp *ModulePass, pkg *Package) {
	inSim := pkgPathHasSuffix(pkg.Path, "internal/sim")

	// internal/sweep is the audited parallelism boundary: it fans whole
	// sealed simulations across worker goroutines and merges results by
	// seed order, so goroutine spawns are legal there — but only there.
	// The wall-clock and randomness rules still apply in full: a sweep
	// worker reading time.Now would decouple its runs from their seeds
	// just like any other sim-driven code.
	sweepBoundary := pkgPathHasSuffix(pkg.Path, "internal/sweep")

	// internal/explore is the audited nondeterminism carve-out: its
	// tie-break-forking wrapper is a sim.Scheduler by design, and its own
	// test suite proves the wrapper preserves the scheduler contract.
	// Everywhere else, implementing the interface is the violation — the
	// implementation would order events without the differential tests
	// ever seeing its tie-breaks.
	if !inSim && !pkgPathHasSuffix(pkg.Path, "internal/explore") {
		if iface := simSchedulerInterface(pkg); iface != nil {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() { // Names() is sorted: stable report order
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				named, ok := types.Unalias(tn.Type()).(*types.Named)
				if !ok || types.IsInterface(named) {
					continue
				}
				if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
					mp.Reportf(tn.Pos(), "type %s implements sim.Scheduler outside internal/sim: event ordering is the simulator's monopoly (internal/explore's audited wrapper is the only exception)", name)
				}
			}
		}
	}
	for _, f := range pkg.Files {
		// Event ordering is internal/sim's monopoly: every other package
		// must schedule through the sim.Scheduler interface (Post, Timer,
		// RunUntil). A private container/heap next to the simulator is a
		// second ordering authority whose tie-breaks the differential
		// tests never see, so the import itself is the violation.
		if !inSim {
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == "container/heap" {
					mp.Reportf(imp.Pos(), "container/heap imported in sim-driven package %s: event ordering must go through the sim.Scheduler interface, not a private priority queue", pkg.Types.Name())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if sweepBoundary {
					return true
				}
				mp.Reportf(n.Pos(), "goroutine spawned in sim-driven package %s: all concurrency must be sim events on the single-threaded loop", pkg.Types.Name())
			case *ast.CallExpr:
				fn := calleeFunc(pkg.Info, n)
				if fn == nil {
					return true
				}
				switch {
				case isTopLevelFuncOf(fn, "time") && forbiddenTimeFuncs[fn.Name()]:
					mp.Reportf(n.Pos(), "time.%s in sim-driven code: use the simulator's virtual clock (sim.Now/Since or a scheduled event)", fn.Name())
				case isTopLevelFuncOf(fn, "math/rand") || isTopLevelFuncOf(fn, "math/rand/v2"):
					if randConstructors[fn.Name()] {
						mp.Reportf(n.Pos(), "rand.%s outside the audited seeding point: construct randomness via sim.NewRand so every run derives from one seed", fn.Name())
					} else {
						mp.Reportf(n.Pos(), "global rand.%s in sim-driven code: draw from an injected *rand.Rand (sim.Rand or sim.NewRand)", fn.Name())
					}
				}
			}
			return true
		})
	}
}

// reportDeterminismTaint is the interprocedural half: nondeterminism
// roots in non-sim-driven packages taint their functions, taint
// propagates up the call graph through the non-sim-driven region, and
// every call from sim-driven code into a tainted non-sim-driven function
// is a diagnostic at the boundary call site. (Roots inside sim-driven
// packages are already reported in place by checkSimDirect, so taint
// only needs to cover the region that check cannot see.)
func reportDeterminismTaint(mp *ModulePass, driven map[*Package]bool) {
	taint := map[*cgNode]string{}
	var queue []*cgNode
	for _, n := range mp.Graph.Nodes {
		if driven[n.Pkg] {
			continue
		}
		if w := directNondeterminism(mp, n); w != "" {
			taint[n] = w
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Callers {
			caller := e.Caller
			if driven[caller.Pkg] {
				continue // report at the boundary instead of propagating past it
			}
			if _, ok := taint[caller]; ok {
				continue
			}
			taint[caller] = taint[n]
			queue = append(queue, caller)
		}
	}
	for _, n := range mp.Graph.Nodes {
		if !driven[n.Pkg] {
			continue
		}
		for _, e := range n.Callees {
			if e.Kind != edgeCall || driven[e.Callee.Pkg] {
				continue
			}
			if w, ok := taint[e.Callee]; ok {
				mp.Reportf(e.Pos, "call to %s from sim-driven package %s reaches %s: route time and randomness through the simulator or audit the root with //sttcp:allow", e.Callee.Name(), n.Pkg.Types.Name(), w)
			}
		}
	}
}

// directNondeterminism scans one function frame (not its nested
// literals) for an unaudited nondeterminism root and returns a witness
// description, or "" if the frame is clean. An //sttcp:allow
// simdeterminism directive on the root's line stops the taint there.
func directNondeterminism(mp *ModulePass, n *cgNode) string {
	body := n.Body()
	if body == nil {
		return ""
	}
	witness := ""
	at := func(op ast.Node) string {
		pos := mp.Fset().Position(op.Pos())
		return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
	}
	inspectShallow(body, func(m ast.Node) {
		if witness != "" {
			return
		}
		switch m := m.(type) {
		case *ast.GoStmt:
			if !mp.Allowed(m.Pos()) {
				witness = "a goroutine spawn (" + at(m) + ")"
			}
		case *ast.CallExpr:
			fn := calleeFunc(n.Pkg.Info, m)
			if fn == nil {
				return
			}
			switch {
			case isTopLevelFuncOf(fn, "time") && forbiddenTimeFuncs[fn.Name()]:
				if !mp.Allowed(m.Pos()) {
					witness = "time." + fn.Name() + " (" + at(m) + ")"
				}
			case isTopLevelFuncOf(fn, "math/rand") || isTopLevelFuncOf(fn, "math/rand/v2"):
				if !mp.Allowed(m.Pos()) {
					witness = "rand." + fn.Name() + " (" + at(m) + ")"
				}
			}
		}
	})
	return witness
}
