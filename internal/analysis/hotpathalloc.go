package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
)

// HotPathAlloc enforces allocation discipline in functions annotated
//
//	//sttcp:hotpath
//
// in their doc comment — the per-segment TCP bookkeeping and the metrics
// instruments, which run once per simulated segment and are asserted
// zero-alloc by testing.AllocsPerRun benchmarks. Inside a hotpath
// function the analyzer forbids:
//
//   - any call into package fmt (Sprintf and friends allocate, always)
//   - interface boxing: passing a concrete value where a parameter is an
//     interface (including variadic ...any), or converting to one
//   - append to a slice with no visible preallocated capacity (allowed:
//     appending to a slice made in the same function with an explicit
//     capacity, or to a re-sliced backing array x[:0])
//   - non-constant string concatenation, closures, and defers
//
// v2 makes the annotation transitive over the call graph: a hotpath
// function calling an unannotated module function whose call chain
// contains any of the constructs above is a diagnostic at the call site,
// naming the root. Annotating the callee //sttcp:hotpath moves the check
// into the callee; an //sttcp:allow hotpathalloc on the root construct
// declares it an audited cold path (the mid-run instrument-registration
// slow path) and stops the propagation.
//
// The static check and the AllocsPerRun assertion back each other: the
// benchmark proves the property today, the analyzer names the exact
// expression that breaks it tomorrow.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocating constructs in //sttcp:hotpath functions, transitively through callees",
	Run:  runHotPathAlloc,
}

// hotFinding is one allocating construct: format has exactly one %s slot
// (the hotpath function's name) so direct reports keep their v1 wording;
// short is the compact phrase transitive witnesses use.
type hotFinding struct {
	pos    token.Pos
	format string
	short  string
}

func runHotPathAlloc(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		pass := mp.packagePass(pkg)
		for _, fn := range funcDecls(pkg) {
			if hasDirective(fn, "hotpath") {
				for _, f := range scanHotFrame(pass, fn.Body) {
					pass.Reportf(f.pos, f.format, fn.Name.Name)
				}
			}
		}
	}
	checkTransitiveHotPath(mp)
}

// checkTransitiveHotPath propagates allocation findings from unannotated
// callees up to annotated callers. Only functions actually reachable
// from a hotpath annotation are scanned, so an //sttcp:allow
// hotpathalloc in unrelated cold code is never consulted (and therefore
// still surfaces as stale if truly unused).
func checkTransitiveHotPath(mp *ModulePass) {
	annotated := map[*cgNode]bool{}
	for _, n := range mp.Graph.Nodes {
		if n.Decl != nil && hasDirective(n.Decl, "hotpath") {
			annotated[n] = true
		}
	}

	// Forward closure: unannotated functions reachable from annotated
	// ones through static calls. (Closures created inside a frame are
	// already direct findings there, so creates-edges are not followed.)
	reach := map[*cgNode]bool{}
	var stack []*cgNode
	for _, n := range mp.Graph.Nodes {
		if annotated[n] {
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Callees {
			if e.Kind != edgeCall || annotated[e.Callee] || reach[e.Callee] {
				continue
			}
			reach[e.Callee] = true
			stack = append(stack, e.Callee)
		}
	}

	// Witnesses: the first unaudited allocating construct in each
	// reachable frame, then propagated caller-ward within the reachable
	// region so a chain of helpers carries its root's description.
	witness := map[*cgNode]string{}
	var queue []*cgNode
	for _, n := range mp.Graph.Nodes {
		if !reach[n] || n.Body() == nil {
			continue
		}
		pass := mp.packagePass(n.Pkg)
		for _, f := range scanHotFrame(pass, n.Body()) {
			if mp.Allowed(f.pos) {
				continue // audited cold construct: not a witness
			}
			pos := mp.Fset().Position(f.pos)
			witness[n] = f.short + " (" + filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line) + ")"
			queue = append(queue, n)
			break
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Callers {
			c := e.Caller
			if e.Kind != edgeCall || annotated[c] || !reach[c] {
				continue
			}
			if _, ok := witness[c]; ok {
				continue
			}
			witness[c] = witness[n]
			queue = append(queue, c)
		}
	}

	for _, n := range mp.Graph.Nodes {
		if !annotated[n] {
			continue
		}
		for _, e := range n.Callees {
			if e.Kind != edgeCall || annotated[e.Callee] {
				continue
			}
			if w, ok := witness[e.Callee]; ok {
				mp.Reportf(e.Pos, "hotpath function %s calls %s, which reaches %s: annotate the callee //sttcp:hotpath or move the work off the hot path", n.Fn.Name(), e.Callee.Name(), w)
			}
		}
	}
}

// scanHotFrame collects the allocating constructs in one function body.
// Nested closures are themselves findings and are not descended into.
func scanHotFrame(pass *Pass, body *ast.BlockStmt) []hotFinding {
	var out []hotFinding
	prealloc := preallocatedSlices(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			out = append(out, hotFinding{n.Pos(),
				"closure in hotpath function %s allocates; lift it out or pass a method value from cold code",
				"a closure"})
			return false
		case *ast.DeferStmt:
			out = append(out, hotFinding{n.Pos(),
				"defer in hotpath function %s allocates a defer record on older runtimes and hides work; call directly",
				"a defer"})
		case *ast.BinaryExpr:
			out = appendConcatFinding(pass, out, n)
		case *ast.CallExpr:
			out = appendCallFindings(pass, out, n, prealloc)
		}
		return true
	})
	return out
}

func appendConcatFinding(pass *Pass, out []hotFinding, n *ast.BinaryExpr) []hotFinding {
	if n.Op.String() != "+" {
		return out
	}
	tv, ok := pass.Pkg.Info.Types[n]
	if !ok || tv.Value != nil { // constant-folded concatenation is free
		return out
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		out = append(out, hotFinding{n.Pos(),
			"string concatenation in hotpath function %s allocates",
			"string concatenation"})
	}
	return out
}

func appendCallFindings(pass *Pass, out []hotFinding, call *ast.CallExpr, prealloc map[types.Object]bool) []hotFinding {
	// conversions to an interface type box their operand
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := pass.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) {
				out = append(out, hotFinding{call.Pos(),
					"conversion to interface in hotpath function %s boxes its operand",
					"an interface conversion"})
			}
		}
		return out
	}
	if isBuiltinCall(pass, call, "append") {
		return appendAppendFinding(pass, out, call, prealloc)
	}
	callee := calleeFunc(pass.Pkg.Info, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		out = append(out, hotFinding{call.Pos(),
			"fmt." + callee.Name() + " in hotpath function %s allocates on every call",
			"fmt." + callee.Name()})
		return out
	}
	return appendBoxingFindings(pass, out, call, callee)
}

// appendBoxingFindings flags concrete arguments passed into interface
// parameters.
func appendBoxingFindings(pass *Pass, out []hotFinding, call *ast.CallExpr, callee *types.Func) []hotFinding {
	sigType := pass.TypeOf(call.Fun)
	if sigType == nil {
		return out
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return out
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(pass, arg) {
			continue
		}
		name := "call"
		if callee != nil {
			name = callee.Name()
		}
		out = append(out, hotFinding{arg.Pos(),
			fmt.Sprintf("argument boxes %s into an interface in hotpath function %%s (%s)", at.String(), name),
			"interface boxing"})
	}
	return out
}

func isUntypedNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// appendAppendFinding allows append only when the destination's capacity
// is visibly preallocated: the first argument is a slice expression
// (x[:0] reuse) or a local made with an explicit capacity.
func appendAppendFinding(pass *Pass, out []hotFinding, call *ast.CallExpr, prealloc map[types.Object]bool) []hotFinding {
	if len(call.Args) == 0 {
		return out
	}
	switch dst := ast.Unparen(call.Args[0]).(type) {
	case *ast.SliceExpr:
		return out // appending into a re-sliced buffer reuses its backing array
	case *ast.Ident:
		if obj := pass.ObjectOf(dst); obj != nil && prealloc[obj] {
			return out
		}
	}
	return append(out, hotFinding{call.Pos(),
		"append without visible preallocated capacity in hotpath function %s; make the slice with an explicit capacity first",
		"an unpreallocated append"})
}

// preallocatedSlices collects local variables initialized from a 3-arg
// make — the only append destinations the analyzer trusts.
func preallocatedSlices(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 3 || !isBuiltinCall(pass, call, "make") {
				continue
			}
			if lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if obj := pass.ObjectOf(lhs); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}
