// Package stopfence checks that every goroutine launched by a `go`
// statement is paired with a stop fence, so no goroutine outlives its
// component's shutdown — the generalization of the PR-2 wall-clock
// leak (a ticker goroutine ranging over a channel that Stop() never
// closes keeps the process alive).
//
// A goroutine counts as fenced when its body — the function literal,
// or a same-package callee inlined one level deep — shows one of:
//
//   - a receive from (or range over) a stop channel: a channel whose
//     name is a shutdown word (stop, done, quit, ...), a ctx.Done()-
//     style channel call, or a channel the package close()s somewhere;
//   - a WaitGroup registration (a zero-argument .Done() call): the
//     launcher joins the goroutine before returning or shutting down;
//   - a blocking accept/serve loop on a resource the package closes
//     (Close/Shutdown/Stop is called on the same field elsewhere), so
//     closing the resource unblocks the loop;
//   - a connection-scoped loop that defers Close on the very resource
//     it reads: the loop is bounded by the connection's lifetime.
//
// A `go` call into another package (no body to inspect) is fenced when
// the package closes the callee's receiver (go s.srv.Serve(l) is fine
// when s.srv.Shutdown(ctx) appears in the package).
//
// Deliberate exceptions carry a //distqlint:allow stopfence waiver
// with a rationale.
package stopfence

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer implements the goroutine stop-fence check.
var Analyzer = &analysis.Analyzer{
	Name: "stopfence",
	Doc:  "every go statement pairs with a Done()-channel stop fence or registered pool; no goroutine outlives shutdown",
	Run:  run,
}

// stopWords are channel names that read as shutdown signals.
var stopWords = map[string]bool{
	"stop": true, "stopc": true, "stopch": true,
	"done": true, "donec": true, "donech": true,
	"quit": true, "quitc": true, "exit": true,
	"cancel": true, "closing": true, "closed": true,
	"shutdown": true,
}

// blockingCalls are method names that block until their receiver is
// closed: a loop around one is fenced by the resource's lifetime.
var blockingCalls = map[string]bool{
	"Accept": true, "Serve": true, "Recv": true, "Wait": true,
}

func run(pass *analysis.Pass) error {
	closed := closedNames(pass.Files)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !fenced(pass, g, closed) {
				pass.Reportf(g.Pos(), "goroutine has no stop fence: select on a done/stop channel, register it with a WaitGroup, or bound its loop by a resource closed at shutdown, so it cannot outlive Close (PR-2 wall-clock leak)")
			}
			return true
		})
	}
	return nil
}

// closedNames collects the terminal names of everything the package
// shuts down: close(x.q) and x.r.Close()/Stop()/Shutdown() both
// register their terminal field name.
func closedNames(files []*ast.File) map[string]bool {
	out := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
				if name := terminal(call.Args[0]); name != "" {
					out[name] = true
				}
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Close", "Shutdown", "Stop":
				if name := terminal(sel.X); name != "" {
					out[name] = true
				}
			}
			return true
		})
	}
	return out
}

// terminal names the last selector or ident of an expression chain,
// case-sensitively: tk.C (a ticker channel) and a conn named c must
// not collide.
func terminal(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.ParenExpr:
		return terminal(x.X)
	case *ast.StarExpr:
		return terminal(x.X)
	case *ast.IndexExpr:
		return terminal(x.X)
	case *ast.CallExpr:
		return terminal(x.Fun)
	}
	return ""
}

// fenced decides whether g's goroutine has a stop fence.
func fenced(pass *analysis.Pass, g *ast.GoStmt, closed map[string]bool) bool {
	if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return fencedBody(fl.Body, nil, closed)
	}
	// Same-package callee: inline one level.
	if fn := analysis.CalleeFunc(pass.Info, g.Call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pass.Path {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && obj == fn {
					return fencedBody(fd.Body, paramNames(fd.Type), closed)
				}
			}
		}
	}
	// Foreign callee, no body to inspect: fenced when the package closes
	// the receiver (go s.srv.Serve(l) with s.srv.Shutdown elsewhere).
	if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
		if name := terminal(sel.X); name != "" && closed[name] {
			return true
		}
	}
	return false
}

// paramNames collects a declaration's parameter names.
func paramNames(ft *ast.FuncType) map[string]bool {
	out := make(map[string]bool)
	if ft == nil || ft.Params == nil {
		return out
	}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			out[name.Name] = true
		}
	}
	return out
}

// fencedBody scans one goroutine body for any of the fence shapes.
// params holds the inlined callee's parameter names (nil for a
// literal), for the connection-scoped defer-Close rule.
func fencedBody(body *ast.BlockStmt, params map[string]bool, closed map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && stopChan(x.X, closed) {
				found = true
			}
		case *ast.RangeStmt:
			if stopChan(x.X, closed) {
				found = true
			}
		case *ast.DeferStmt:
			// defer c.Close() on an owned connection: the loop is bounded
			// by the connection's lifetime.
			if sel, ok := x.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if name := terminal(sel.X); name != "" && (params[name] || closed[name]) {
					found = true
				}
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// WaitGroup registration: the launcher joins the goroutine.
			if sel.Sel.Name == "Done" && len(x.Args) == 0 {
				found = true
				return false
			}
			// Blocking accept/serve loop on a package-closed resource.
			if blockingCalls[sel.Sel.Name] {
				if name := terminal(sel.X); name != "" && closed[name] {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// stopChan reports whether e reads as a stop channel: a shutdown word,
// a ctx.Done()-style call, or a channel the package close()s.
func stopChan(e ast.Expr, closed map[string]bool) bool {
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	}
	name := terminal(e)
	if name == "" {
		return false
	}
	return stopWords[strings.ToLower(name)] || closed[name]
}
