package analysis

import (
	"go/ast"
	"go/types"
)

// traceEmitMethods are Recorder methods that append to the ordered event
// or span log; calling one from inside a map range stamps Go's randomized
// iteration order into the trace, so two runs of the same seed diverge.
var traceEmitMethods = map[string]bool{
	"Emit":           true,
	"EmitValue":      true,
	"EmitIn":         true,
	"OpenSpan":       true,
	"OpenAutoSpan":   true,
	"OpenAutoSpanAt": true,
	"CloseSpan":      true,
}

// simScheduleMethods order future work; scheduling from a map range makes
// the event-queue sequence numbers (the tiebreaker for simultaneous
// events) depend on iteration order.
var simScheduleMethods = map[string]bool{
	"Schedule": true,
	"At":       true,
}

// MapOrder flags `range` over a map whose body does observably ordered
// work: emitting trace events or spans, scheduling simulator events, or
// appending to an exported result slice. These are the replay killers —
// the code runs fine, the output is legal, and bit-for-bit determinism is
// gone. The fix idiom is sorted keys (see sttcp.Node.sortedKeys) or
// collecting into a local slice and sorting before the ordered work.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag map ranges whose bodies emit traces, schedule sim events, or append to exported results",
	Run:  runMapOrder,
}

func runMapOrder(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		pass := mp.packagePass(pkg)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := types.Unalias(t.Underlying()).(*types.Map); isMap {
					checkMapRangeBody(pass, rng)
				}
				return true
			})
		}
	}
}

func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Pkg.Info, n)
			switch {
			case isMethodOn(fn, "trace", "Recorder") && traceEmitMethods[fn.Name()]:
				pass.Reportf(n.Pos(), "trace.%s inside a range over a map: event order becomes map iteration order; range sorted keys instead", fn.Name())
			case isMethodOn(fn, "sim", "Simulator") && simScheduleMethods[fn.Name()]:
				pass.Reportf(n.Pos(), "sim.%s inside a range over a map: event sequence numbers become map iteration order; range sorted keys instead", fn.Name())
			}
		case *ast.AssignStmt:
			checkExportedAppend(pass, n)
		}
		return true
	})
}

// checkExportedAppend flags `X = append(X, ...)` inside the map range
// when X is an exported identifier or an exported field — a result
// surface whose order callers (and golden files) will observe.
func checkExportedAppend(pass *Pass, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || i >= len(as.Lhs) {
			continue
		}
		if !isBuiltinCall(pass, call, "append") {
			continue
		}
		name, exported := exportedTarget(pass, as.Lhs[i])
		if exported {
			pass.Reportf(as.Pos(), "append to exported %s inside a range over a map: result order becomes map iteration order; range sorted keys instead", name)
		}
	}
}

// exportedTarget reports whether the assignment target is an exported
// field selector or an exported package-level variable, naming it.
func exportedTarget(pass *Pass, lhs ast.Expr) (string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if lhs.Sel.IsExported() {
			return "field " + lhs.Sel.Name, true
		}
	case *ast.Ident:
		if obj := pass.ObjectOf(lhs); obj != nil && lhs.IsExported() {
			if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Types.Scope() {
				return "package variable " + lhs.Name, true
			}
		}
	}
	return "", false
}
