package analysis

import (
	"go/ast"
	"go/types"
)

// errorOriginPkgs are the last path elements of packages whose errors
// carry correctness signal the harness must surface: the simulator's Run
// errors include the runaway-event cap, and experiment/chaos/scenario
// errors are how a failed run distinguishes itself from a passed one.
var errorOriginPkgs = map[string]bool{
	"sim":        true,
	"chaos":      true,
	"experiment": true,
	"scenario":   true,
}

// ResultErrors flags harness errors silently thrown away: an error (or
// error slice) returned by the sim/experiment/chaos/scenario packages
// assigned to the blank identifier or dropped entirely by an expression
// statement, and any discard of a Result value or its Errors field. The
// scenario executor goes to some length to surface runtime injection
// failures through Result.Errors (`sttcp lab` exits non-zero on them);
// a single `_ =` upstream silently converts a failed campaign into a
// passed one.
var ResultErrors = &Analyzer{
	Name: "resulterrors",
	Doc:  "harness Result.Errors and returned errors may not be discarded",
	Run:  runResultErrors,
}

func runResultErrors(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		pass := mp.packagePass(pkg)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					checkBlankDiscards(pass, n)
				case *ast.ExprStmt:
					checkDroppedCall(pass, n)
				}
				return true
			})
		}
	}
}

func fromErrorOrigin(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return errorOriginPkgs[lastPathElem(fn.Pkg().Path())]
}

// checkBlankDiscards flags `_ = ...` (and `x, _ := ...`) positions where
// the dropped value is a harness error or a Result/Result.Errors value.
func checkBlankDiscards(pass *Pass, as *ast.AssignStmt) {
	blankAt := func(i int) bool {
		id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		return ok && id.Name == "_"
	}

	// Multi-value form: x, _ := f() — find the call once.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass.Pkg.Info, call)
		if !fromErrorOrigin(fn) {
			return
		}
		tuple, ok := pass.TypeOf(call).(*types.Tuple)
		if !ok {
			return
		}
		for i := 0; i < tuple.Len() && i < len(as.Lhs); i++ {
			if blankAt(i) && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(as.Lhs[i].Pos(), "error from %s.%s discarded with _: surface it (Result.Errors, t.Fatal, or a non-zero exit)", fn.Pkg().Name(), fn.Name())
			}
		}
		return
	}

	for i := range as.Lhs {
		if i >= len(as.Rhs) || !blankAt(i) {
			continue
		}
		rhs := ast.Unparen(as.Rhs[i])
		if sel, ok := rhs.(*ast.SelectorExpr); ok && isResultErrorsField(pass, sel) {
			pass.Reportf(as.Lhs[i].Pos(), "Result.Errors discarded with _: a failed run would read as passed")
			continue
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			fn := calleeFunc(pass.Pkg.Info, call)
			if fromErrorOrigin(fn) && isErrorType(pass.TypeOf(call)) {
				pass.Reportf(as.Lhs[i].Pos(), "error from %s.%s discarded with _: surface it (Result.Errors, t.Fatal, or a non-zero exit)", fn.Pkg().Name(), fn.Name())
			}
		}
	}
}

// checkDroppedCall flags statement-position calls into the harness whose
// only results are errors — dropping every return value without even a
// blank identifier.
func checkDroppedCall(pass *Pass, es *ast.ExprStmt) {
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(pass.Pkg.Info, call)
	if !fromErrorOrigin(fn) {
		return
	}
	t := pass.TypeOf(call)
	if t == nil {
		return
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				pass.Reportf(es.Pos(), "call to %s.%s drops its error result: check it", fn.Pkg().Name(), fn.Name())
				return
			}
		}
		return
	}
	if isErrorType(t) {
		pass.Reportf(es.Pos(), "call to %s.%s drops its error result: check it", fn.Pkg().Name(), fn.Name())
	}
}

// isResultErrorsField matches x.Errors where x has a named type Result
// declared in one of the harness packages.
func isResultErrorsField(pass *Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Errors" {
		return false
	}
	named := namedOf(pass.TypeOf(sel.X))
	if named == nil || named.Obj().Name() != "Result" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && errorOriginPkgs[lastPathElem(pkg.Path())]
}
