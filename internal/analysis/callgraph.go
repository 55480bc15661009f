package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the static call graph that turns the per-function
// analyzers into interprocedural ones. The graph is deliberately simple —
// and deliberately honest about it:
//
//   - Nodes are function declarations and function literals of the loaded
//     packages. Literals get their own nodes so a frame scan (inspectShallow)
//     stops at the closure boundary and the closure's body is judged once.
//   - Edges are statically resolvable calls: direct function calls and
//     method calls on concrete receivers. Calls through interfaces and
//     plain function values are NOT edges — the analyzers built on the
//     graph are "may miss", never "may invent".
//   - A function that creates a literal gets a creates-edge to it: the
//     closure may run with the creator's obligations, so taint found in
//     the literal reaches its creator.
type cgNode struct {
	Fn   *types.Func   // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Decl *ast.FuncDecl // nil for literals
	Pkg  *Package

	Callees []*cgEdge
	Callers []*cgEdge
}

// Name renders a human-readable identity: "pkg.Func", "pkg.(T).Method",
// or "pkg.func-literal@line".
func (n *cgNode) Name() string {
	if n.Fn != nil {
		if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := namedOf(sig.Recv().Type()); named != nil {
				return n.Pkg.Types.Name() + ".(" + named.Obj().Name() + ")." + n.Fn.Name()
			}
		}
		return n.Pkg.Types.Name() + "." + n.Fn.Name()
	}
	return n.Pkg.Types.Name() + ".func-literal@" + n.Pkg.Fset.Position(n.Lit.Pos()).String()
}

// Body returns the node's own statement block: the declaration's body or
// the literal's. Nested literals inside it are separate nodes — walk with
// inspectShallow to stay inside this node's frame.
func (n *cgNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

type cgEdgeKind int

const (
	edgeCall    cgEdgeKind = iota // a statically resolved call expression
	edgeCreates                   // enclosing function creates a literal
)

type cgEdge struct {
	Caller *cgNode
	Callee *cgNode
	Kind   cgEdgeKind
	Pos    token.Pos // the call site, or the literal for a creates-edge
}

// callGraph indexes every node of the analyzed packages with
// deterministic iteration order (declaration order within the sorted
// file order the loader already guarantees).
type callGraph struct {
	decls map[*types.Func]*cgNode
	Nodes []*cgNode // deterministic order
}

// buildCallGraph indexes the packages' functions and resolves their
// static call edges.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{decls: map[*types.Func]*cgNode{}}
	// Pass 1: index declared functions so cross-package edges resolve no
	// matter the load order.
	for _, pkg := range pkgs {
		for _, fd := range funcDecls(pkg) {
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &cgNode{Fn: obj, Decl: fd, Pkg: pkg}
			g.decls[obj] = n
			g.Nodes = append(g.Nodes, n)
		}
	}
	// Pass 2: walk each declaration, splitting off literal nodes and
	// recording edges.
	for _, pkg := range pkgs {
		for _, fd := range funcDecls(pkg) {
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.walkFrame(g.decls[obj], pkg)
		}
	}
	return g
}

// walkFrame records the edges of one node's own frame, creating (and
// recursing into) nodes for the literals it contains.
func (g *callGraph) walkFrame(n *cgNode, pkg *Package) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			ln := &cgNode{Lit: m, Pkg: pkg}
			g.Nodes = append(g.Nodes, ln)
			g.addEdge(&cgEdge{Caller: n, Callee: ln, Kind: edgeCreates, Pos: m.Pos()})
			g.walkFrame(ln, pkg)
			return false // the literal's frame walks itself
		case *ast.CallExpr:
			if fn := calleeFunc(pkg.Info, m); fn != nil {
				if callee, ok := g.decls[fn]; ok {
					g.addEdge(&cgEdge{Caller: n, Callee: callee, Kind: edgeCall, Pos: m.Pos()})
				}
			}
		}
		return true
	})
	sortEdges(n.Callees)
}

func (g *callGraph) addEdge(e *cgEdge) {
	e.Caller.Callees = append(e.Caller.Callees, e)
	e.Callee.Callers = append(e.Callee.Callers, e)
}

func sortEdges(es []*cgEdge) {
	sort.SliceStable(es, func(i, j int) bool { return es[i].Pos < es[j].Pos })
}

// inspectShallow walks n without descending into nested function
// literals: the callback sees only the current frame's nodes.
func inspectShallow(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != root {
			return false
		}
		fn(m)
		return true
	})
}
