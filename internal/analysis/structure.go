package analysis

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// Structure holds the testbed's architecture: one place performs faults,
// one type holds a run's artifacts, one window stores stream bytes, one
// loop runs a testbed, one registry judges it, and a host's timers run on
// the host's clock. Each rule is one or more rows of structureRows — a typed
// predicate over resolved objects, the packages or files it reads, the
// files where a match is the rule itself, and why — so a call through a
// local alias or a method value is as visible as one spelled the usual
// way. No run observes these rules broken: a fault performed from a
// second place, a second judge or a timer on the raw simulator changes
// nothing a deterministic test compares until the day the second path
// diverges. The allowed places are the only exemptions; an
// //sttcp:allow directive cannot name this analyzer.
var Structure = &Analyzer{
	Name: "structure",
	Doc:  "one place performs faults, holds artifacts, stores stream bytes, runs a testbed, judges a run; host timers on the host clock",
	Run:  runStructure,
}

// structureRow is one structural rule.
type structureRow struct {
	rule    string   // the rule's name, as DESIGN.md and ROADMAP.md cite it
	covers  []string // places the row reads; nil reads every loaded package
	allowed []string // places where a match is the rule itself, not a breach
	tests   bool     // also read the packages' _test.go files, syntax only
	reason  string
	// match describes the node on top of the stack (its ancestors below
	// it) if the row forbids it, "" otherwise. A row with tests set also
	// sees test files, which are not type-checked: there its match finds
	// no object for any identifier and must decide by syntax.
	match func(p *Pass, stack []ast.Node) string
}

// A place is a package path suffix ("internal/tcp") or such a suffix and
// a file name ("internal/sttcp/logger.go").
func inPlaces(pkgPath, file string, places []string) bool {
	for _, pl := range places {
		dir, base := pl, ""
		if strings.HasSuffix(pl, ".go") {
			dir, base = pl[:strings.LastIndexByte(pl, '/')], pl[strings.LastIndexByte(pl, '/')+1:]
		}
		if pkgPathHasSuffix(pkgPath, dir) && (base == "" || base == filepath.Base(file)) {
			return true
		}
	}
	return false
}

var structureRows = []structureRow{{
	rule:    "faults-one-place",
	allowed: slices.Concat(substratePkgs, []string{"internal/experiment/testbed.go", "benchmark"}),
	reason:  "experiment.Testbed performs every fault, so each is vetted, resolved to a machine and recorded for the gray verdicts (benchmark/ crashes its primary directly until ROADMAP item 2a)",
	match:   faultUse,
}, {
	rule:   "artifacts-one-place",
	covers: []string{"internal/experiment"},
	reason: "a run's trace, metrics and timeline are read off its finished Testbed; a result type holding its own is per-runner plumbing",
	match:  artifactField,
}, {
	rule:   "one-window",
	tests:  true,
	reason: "tcp.Reassembler is the one out-of-order queue",
	match:  secondReassembler,
}, {
	rule:   "one-window",
	covers: []string{"internal/tcp", "internal/sttcp"},
	reason: "tcp.Window is the one stream store; hold the bytes in a window and Release them",
	match:  selfCopy,
}, {
	rule:    "one-window",
	covers:  []string{"internal/sttcp"},
	allowed: []string{"internal/sttcp/logger.go"},
	reason:  "the primary holds client bytes in its receive buffer (tcp.Conn.Hold), not in a second window",
	match:   usesOf(funcRef{"internal/tcp", "", "NewWindow"}),
}, {
	rule:    "one-run",
	allowed: []string{"internal/experiment/plan.go", "benchmark"},
	reason:  "Plan.Run builds and starts every testbed; compile the run to an experiment.Plan (benchmark/ builds its own until ROADMAP item 2a)",
	match:   usesOf(funcRef{"internal/experiment", "", "Build"}, funcRef{"internal/experiment", "Testbed", "StartSTTCP"}),
}, {
	rule:    "one-judge",
	allowed: []string{"internal/experiment/invariants.go", "internal/explore/explore.go"},
	reason:  "the invariant registry decides what a correct run is (the explorer's scheduler-order audits the queue, not the run); register the invariant there",
	match:   violationLiteral,
}, {
	rule:   "one-judge",
	tests:  true,
	reason: "Plan.Run judges every run with the invariant registry; a per-runner check is a second judge",
	match:  perRunnerCheck,
}, {
	rule:   "one-clock",
	covers: []string{"internal/tcp", "internal/netstack", "internal/hb", "internal/sttcp", "internal/app/server.go"},
	reason: "host software arms its timers on the host's sim.Clock, which a crash stops",
	match: usesOf(funcRef{"internal/sim", "Simulator", "Schedule"}, funcRef{"internal/sim", "Simulator", "At"},
		funcRef{"internal/sim", "Simulator", "NewTimer"}, funcRef{"internal/sim", "Simulator", "Post"},
		funcRef{"internal/sim", "", "NewTicker"}),
}}

func runStructure(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		pass := mp.packagePass(pkg)
		for _, f := range pkg.Files {
			checkStructure(pass, f, false)
		}
		tests, _ := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		for _, name := range tests {
			if f, err := parser.ParseFile(mp.Fset(), name, nil, parser.SkipObjectResolution); err == nil {
				checkStructure(pass, f, true) // a file that does not parse fails go vet and go test
			}
		}
	}
}

// checkStructure walks one file once for every row that reads it.
func checkStructure(pass *Pass, f *ast.File, test bool) {
	file := pass.Fset().Position(f.Pos()).Filename
	var rows []*structureRow
	for i := range structureRows {
		r := &structureRows[i]
		if (!test || r.tests) && (r.covers == nil || inPlaces(pass.Pkg.Path, file, r.covers)) && !inPlaces(pass.Pkg.Path, file, r.allowed) {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		for _, r := range rows {
			if what := r.match(pass, stack); what != "" {
				pass.Reportf(n.Pos(), "%s: %s; %s", r.rule, what, r.reason)
			}
		}
		return true
	})
}

// ancestor returns the node i levels above the top of the stack, nil past
// the root.
func ancestor(stack []ast.Node, i int) ast.Node {
	if i >= len(stack) {
		return nil
	}
	return stack[len(stack)-1-i]
}

// usedFunc resolves the identifier on top of the stack to the function or
// method it uses (a call, a method value, a method expression), the
// generic origin for an instantiation; nil for anything else.
func usedFunc(p *Pass, stack []ast.Node) *types.Func {
	id, _ := ancestor(stack, 0).(*ast.Ident)
	if fn, ok := p.Pkg.Info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// funcRef names a package-level function (recv "") or a method of a named
// type of the package whose path ends in pkg.
type funcRef struct{ pkg, recv, name string }

func (r funcRef) is(fn *types.Func) bool {
	if fn.Name() != r.name {
		return false
	}
	if r.recv != "" {
		return isMethodOn(fn, r.pkg, r.recv)
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() == nil && fn.Pkg() != nil && pkgPathHasSuffix(fn.Pkg().Path(), r.pkg)
}

// usesOf matches any use of the named functions, whatever expression
// reaches them: a local alias of a receiver, a function value, a method
// value.
func usesOf(refs ...funcRef) func(*Pass, []ast.Node) string {
	return func(p *Pass, stack []ast.Node) string {
		fn := usedFunc(p, stack)
		for _, r := range refs {
			if fn != nil && r.is(fn) {
				return lastPathElem(r.pkg) + "." + strings.TrimPrefix(r.recv+"."+r.name, ".") + " used here"
			}
		}
		return ""
	}
}

// faultMethods are the mechanisms the substrate packages expose for
// breaking the world; substratePkgs are the packages that implement them.
var (
	faultMethods = map[string]bool{
		"CrashHW": true, "FailNIC": true, "SetCPUScale": true, "SetTimerScale": true, // cluster.Host
		"DropFromBFor": true, "SetLossRate": true, "SetExtraDelay": true, "SetCorruptRate": true, // netem.Link (and serial.Port)
		"SetCutFromA": true, "SetCutFromB": true,
		"CrashSilent": true, "CrashCleanup": true, // app.Server
		"SetDown": true, // serial.Port
	}
	substratePkgs = []string{"internal/netem", "internal/serial", "internal/cluster", "internal/app"}
)

// faultUse matches a use of a fault method of a substrate type, or of any
// interface method of that name (an interface hides which machine breaks).
// Raising the serial cable, SetDown(false), breaks nothing.
func faultUse(p *Pass, stack []ast.Node) string {
	fn := usedFunc(p, stack)
	if fn == nil || !faultMethods[fn.Name()] {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) && !inPlaces(fn.Pkg().Path(), "", substratePkgs) {
		return ""
	}
	if fn.Name() == "SetDown" {
		sel, _ := ancestor(stack, 1).(*ast.SelectorExpr)
		call, _ := ancestor(stack, 2).(*ast.CallExpr)
		if sel != nil && call != nil && ast.Unparen(call.Fun) == sel && len(call.Args) == 1 {
			if v := p.Pkg.Info.Types[call.Args[0]].Value; v != nil && v.Kind() == constant.Bool && !constant.BoolVal(v) {
				return ""
			}
		}
	}
	recv := types.TypeString(sig.Recv().Type(), (*types.Package).Name)
	return "fault " + strings.TrimPrefix(recv, "*") + "." + fn.Name() + " performed outside experiment.Testbed"
}

// artifactField matches a struct field of type *trace.Recorder,
// *metrics.Snapshot or *telemetry.Timeline in any struct but Testbed.
func artifactField(p *Pass, stack []ast.Node) string {
	field, ok := ancestor(stack, 0).(*ast.Field)
	if _, inStruct := ancestor(stack, 2).(*ast.StructType); !ok || !inStruct {
		return ""
	}
	if ts, ok := ancestor(stack, 3).(*ast.TypeSpec); ok && ts.Name.Name == "Testbed" {
		return ""
	}
	named := namedOf(p.TypeOf(field.Type))
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	for _, a := range [...]struct{ pkg, name string }{{"internal/trace", "Recorder"}, {"internal/metrics", "Snapshot"}, {"internal/telemetry", "Timeline"}} {
		if named.Obj().Name() == a.name && pkgPathHasSuffix(named.Obj().Pkg().Path(), a.pkg) {
			return "a struct other than Testbed holds a " + named.Obj().Pkg().Name() + "." + a.name
		}
	}
	return ""
}

// secondReassembler matches insertOOO or drainOOO declared anywhere but
// on tcp.Reassembler (in a test file, anywhere), and a tcp.Reassembler
// that lacks either, which would leave the rule nothing to hold.
func secondReassembler(p *Pass, stack []ast.Node) string {
	switch n := ancestor(stack, 0).(type) {
	case *ast.FuncDecl:
		if name := n.Name.Name; name == "insertOOO" || name == "drainOOO" {
			if fn, _ := p.ObjectOf(n.Name).(*types.Func); !isMethodOn(fn, "internal/tcp", "Reassembler") {
				return name + " declared outside tcp.Reassembler"
			}
		}
	case *ast.TypeSpec:
		tn, _ := p.ObjectOf(n.Name).(*types.TypeName)
		if tn == nil || tn.Name() != "Reassembler" || !pkgPathHasSuffix(tn.Pkg().Path(), "internal/tcp") || tn.Parent() != tn.Pkg().Scope() {
			return ""
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for _, name := range [...]string{"insertOOO", "drainOOO"} {
			if ms.Lookup(tn.Pkg(), name) == nil {
				return "tcp.Reassembler declares no " + name
			}
		}
	}
	return ""
}

// selfCopy matches copy(dst, src) where src slices what dst is: a buffer
// copying itself down.
func selfCopy(p *Pass, stack []ast.Node) string {
	call, ok := ancestor(stack, 0).(*ast.CallExpr)
	if !ok || !isBuiltinCall(p, call, "copy") || len(call.Args) != 2 {
		return ""
	}
	if src, ok := ast.Unparen(call.Args[1]).(*ast.SliceExpr); ok && sameStorage(p, call.Args[0], src.X) {
		return "a buffer copies itself down (" + types.ExprString(call) + ")"
	}
	return ""
}

// sameStorage reports whether a and b, slicing aside, denote the same
// variable or field path: w.buf and w.buf[n:] do, w.buf and v.buf do not.
func sameStorage(p *Pass, a, b ast.Expr) bool {
	strip := func(e ast.Expr) ast.Expr {
		for {
			e = ast.Unparen(e)
			s, ok := e.(*ast.SliceExpr)
			if !ok {
				return e
			}
			e = s.X
		}
	}
	switch a := strip(a).(type) {
	case *ast.Ident:
		b, ok := strip(b).(*ast.Ident)
		return ok && p.ObjectOf(a) != nil && p.ObjectOf(a) == p.ObjectOf(b)
	case *ast.SelectorExpr:
		b, ok := strip(b).(*ast.SelectorExpr)
		return ok && p.ObjectOf(a.Sel) == p.ObjectOf(b.Sel) && sameStorage(p, a.X, b.X)
	case *ast.IndexExpr:
		b, ok := strip(b).(*ast.IndexExpr)
		return ok && types.ExprString(a.Index) == types.ExprString(b.Index) && sameStorage(p, a.X, b.X)
	}
	return false
}

// violationLiteral matches a composite literal of experiment.Violation,
// the element type of []Violation{{...}} included.
func violationLiteral(p *Pass, stack []ast.Node) string {
	lit, ok := ancestor(stack, 0).(*ast.CompositeLit)
	if !ok {
		return ""
	}
	if named := namedOf(p.TypeOf(lit)); named != nil && named.Obj().Name() == "Violation" &&
		named.Obj().Pkg() != nil && pkgPathHasSuffix(named.Obj().Pkg().Path(), "internal/experiment") {
		return "an experiment.Violation built outside the registry"
	}
	return ""
}

// perRunnerCheck matches, by syntax, the per-runner checks the registry
// replaced: anything named FailureFree, and a method named completed.
func perRunnerCheck(_ *Pass, stack []ast.Node) string {
	switch n := ancestor(stack, 0).(type) {
	case *ast.Ident:
		if n.Name == "FailureFree" {
			return "FailureFree is back"
		}
	case *ast.FuncDecl:
		if n.Recv != nil && n.Name.Name == "completed" {
			return "a completed method is back"
		}
	}
	return ""
}
