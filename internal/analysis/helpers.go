package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// lastPathElem returns the final slash-separated element of an import
// path ("repro/internal/sim" -> "sim").
func lastPathElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pkgPathHasSuffix reports whether an import path is, or ends with, the
// given slash-separated suffix: "internal/sim" matches both
// "repro/internal/sim" and a test corpus's "example.com/vet/internal/sim".
func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeFunc resolves the function or method object a call invokes, nil
// for calls through function values, built-ins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// namedOf unwraps pointers and aliases down to a *types.Named, nil if the
// type is not named.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isMethodOn reports whether fn is a method on the named type typeName
// declared in a package whose path ends in pkgSuffix.
func isMethodOn(fn *types.Func, pkgSuffix, typeName string) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Name() != typeName {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkgPathHasSuffix(pkg.Path(), pkgSuffix)
}

// isTopLevelFuncOf reports whether fn is a package-level function (no
// receiver) of the package with exactly the given import path.
func isTopLevelFuncOf(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isErrorType reports whether t is the built-in error interface or a
// slice of it.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if s, ok := types.Unalias(t).(*types.Slice); ok {
		t = s.Elem()
	}
	return types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

// funcDecls returns every function declaration with a body.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// isBuiltinCall reports whether call invokes the named Go builtin
// (append, make, ...). go/types records builtins as *types.Builtin
// objects, so a plain nil-object test does not identify them.
func isBuiltinCall(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	switch pass.ObjectOf(id).(type) {
	case nil, *types.Builtin:
		return true
	}
	return false // shadowed by a local definition
}
