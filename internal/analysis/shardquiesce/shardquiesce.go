// Package shardquiesce enforces the join-shard parallelism contract of
// PROTOCOL.md: operator, spill, and adaptation-mode state owned by a
// component with a shard-worker pool may only be touched from the
// serial handler goroutine after the pool has been quiesced, or by a
// shard worker inside its own partition scope (its *join.Shard).
//
// The analyzer activates in packages that declare a "barrier struct":
// a struct with a field whose type has a quiesce method (the engine's
// shard pool). Two rules are then checked:
//
//  1. Handler barrier: every protocol handler (a method of the barrier
//     struct that type-switches a parameter over proto message types)
//     must call the quiesce barrier before entering the switch. Data is
//     dispatched to the pool, so the usual shape is
//     `if _, isData := msg.(proto.Data); !isData { quiesce }` — the
//     analyzer only requires that a quiesce call precede the switch.
//     This is the PR-5 spill mode-clobber shape: a handler that flips
//     core.Mode while shard workers are still processing corrupts the
//     mode restore.
//
//  2. Goroutine scope: code launched by a `go` statement (closure
//     bodies and same-package callees, one level deep) must not store
//     to or invoke methods on values of the guarded packages
//     (repro/internal/join, repro/internal/spill, repro/internal/core)
//     — except a worker's own *join.Shard, which it owns exclusively.
//     Local aliases (`op := e.op; go func() { op.Purge(...) }()`) are
//     caught by the values' types, not their spelling.
//
// Deliberate exceptions carry a //distqlint:allow shardquiesce waiver
// with a rationale.
package shardquiesce

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// guardedPkgs are the packages whose state the quiesce barrier guards.
var guardedPkgs = map[string]bool{
	"repro/internal/join":  true,
	"repro/internal/spill": true,
	"repro/internal/core":  true,
}

// ProtoPath identifies protocol handlers by their switch case types.
const ProtoPath = "repro/internal/proto"

// Analyzer implements the shard-quiesce discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "shardquiesce",
	Doc:  "operator/spill/mode state may only be touched by the quiesced handler or a shard worker's own shard",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	barriers := barrierStructs(pass)
	if len(barriers) == 0 {
		return nil // no shard pool here: out of scope
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if recvNamed(pass, fd) != nil && barriers[recvNamed(pass, fd)] {
				checkHandler(pass, fd)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					checkGoroutine(pass, g)
				}
				return true
			})
		}
	}
	return nil
}

// barrierStructs finds the named struct types having a field whose type
// provides a quiesce method — the owners of a shard pool.
func barrierStructs(pass *analysis.Pass) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	if pass.Pkg == nil {
		return out
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if hasQuiesceMethod(st.Field(i).Type()) {
				out[named] = true
				break
			}
		}
	}
	return out
}

// hasQuiesceMethod reports whether t (possibly behind a pointer) has a
// method whose name starts with "quiesce" — the pool barrier itself.
// A mere protocol handler for the Quiesce message (onQuiesce) does not
// make its owner a shard pool.
func hasQuiesceMethod(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if strings.HasPrefix(strings.ToLower(named.Method(i).Name()), "quiesce") {
			return true
		}
	}
	return false
}

// recvNamed resolves fd's receiver to its named struct type, or nil.
func recvNamed(pass *analysis.Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := pass.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// checkHandler flags protocol handlers that enter their message type
// switch without first crossing the quiesce barrier.
func checkHandler(pass *analysis.Pass, fd *ast.FuncDecl) {
	for i, stmt := range fd.Body.List {
		ts, ok := stmt.(*ast.TypeSwitchStmt)
		if !ok || !switchesProto(pass, ts) {
			continue
		}
		if !quiesceBefore(fd.Body.List[:i]) {
			pass.Reportf(ts.Pos(), "protocol handler enters its message switch without quiescing the shard pool: non-Data handlers must cross the barrier before touching operator state (PROTOCOL.md join-shard parallelism)")
		}
	}
}

// switchesProto reports whether ts has at least one case over a type
// declared in the proto package — the signature of a protocol handler.
func switchesProto(pass *analysis.Pass, ts *ast.TypeSwitchStmt) bool {
	for _, c := range ts.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			tv, ok := pass.Info.Types[expr]
			if !ok {
				continue
			}
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == ProtoPath {
					return true
				}
			}
		}
	}
	return false
}

// quiesceBefore reports whether any of stmts (including nested blocks
// and conditionals — the Data fast path is the `!isData` guard) calls a
// method whose name contains "quiesce".
func quiesceBefore(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
				strings.Contains(strings.ToLower(sel.Sel.Name), "quiesce") {
				found = true
			}
			return true
		})
	}
	return found
}

// checkGoroutine scans the body launched by g for guarded-state access.
func checkGoroutine(pass *analysis.Pass, g *ast.GoStmt) {
	if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
		scanBody(pass, fl.Body)
		return
	}
	// go p.run(i, w): inline the same-package callee one level deep.
	fn := analysis.CalleeFunc(pass.Info, g.Call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pass.Path {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && obj == fn {
				scanBody(pass, fd.Body)
				return
			}
		}
	}
}

// scanBody reports stores to and method calls on guarded values.
func scanBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if expr := guardedIn(pass, lhs); expr != nil {
					pass.Reportf(lhs.Pos(), "goroutine mutates %s state without the quiesce barrier: only the quiesced handler or a shard worker's own shard may touch it", typeLabel(pass, expr))
					break
				}
			}
		case *ast.IncDecStmt:
			if expr := guardedIn(pass, st.X); expr != nil {
				pass.Reportf(st.Pos(), "goroutine mutates %s state without the quiesce barrier: only the quiesced handler or a shard worker's own shard may touch it", typeLabel(pass, expr))
			}
		case *ast.CallExpr:
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if expr := guardedIn(pass, sel.X); expr != nil {
				pass.Reportf(st.Pos(), "goroutine calls %s.%s without the quiesce barrier: only the quiesced handler or a shard worker's own shard may touch operator state", typeLabel(pass, expr), sel.Sel.Name)
			}
		}
		return true
	})
}

// guardedIn returns the innermost sub-expression of expr whose type is
// a guarded-package type (join/spill/core), or nil. A chain passing
// through *join.Shard is exempt: that is a worker's own partition
// scope.
func guardedIn(pass *analysis.Pass, expr ast.Expr) ast.Expr {
	var hit ast.Expr
	shard := false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
		case *ast.SelectorExpr:
			classify(pass, x, &hit, &shard)
			walk(x.X)
		case *ast.Ident:
			classify(pass, x, &hit, &shard)
		}
	}
	walk(expr)
	if shard {
		return nil
	}
	return hit
}

// classify records whether e's type is guarded or the exempt Shard.
func classify(pass *analysis.Pass, e ast.Expr, hit *ast.Expr, shard *bool) {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !guardedPkgs[obj.Pkg().Path()] {
		return
	}
	if obj.Name() == "Shard" && obj.Pkg().Path() == "repro/internal/join" {
		*shard = true
		return
	}
	if *hit == nil {
		*hit = e
	}
}

// typeLabel renders the guarded expression's type for diagnostics.
func typeLabel(pass *analysis.Pass, expr ast.Expr) string {
	tv, ok := pass.Info.Types[expr]
	if !ok {
		return "guarded"
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
