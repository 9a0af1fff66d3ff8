// Package aliasretain enforces the buffer-ownership table of
// PROTOCOL.md "Performance": values that alias a producer's scratch
// storage must not outlive the call that handed them over unless they
// pass through Clone() (or an equivalent deep copy) first.
//
// Four sources are tracked through the dataflow engine
// (repro/internal/analysis/dataflow):
//
//   - tuple.Result parameters: per the EmitFunc contract, Result.Seqs
//     is the producer's scratch buffer, reused for the next match;
//   - tuple variables filled by BatchReader.Next(&t): a view whose
//     Payload aliases the encoded run (on the data path, the transport's
//     recycled frame buffer);
//   - tuple.DecodeSlab calls whose slab argument is rooted in a field,
//     global, or parameter (a shared slab that is reused across calls;
//     a function-local fresh slab is the legal batch-aliasing pattern);
//   - Get() calls on pool variables (sync.Pool-style recyclers, e.g.
//     the TCP transport's frame buffer pool) — the buffer goes back to
//     the pool and must not be referenced afterwards.
//
// A diagnostic fires when such a value (or anything aliasing it: a
// subslice, field, or local copy) is stored into memory that outlives
// the function (fields, maps, globals, caller-visible pointers), sent
// on a channel, returned, captured by a goroutine, or passed to an
// in-module callee whose computed summary retains its argument.
// Clone() (tuple.Result, tuple.Tuple) and Tuple.CloneInto launder taint
// — as does any value-typed copy, which the engine recognizes
// structurally (append of value elements into a fresh slice is clean).
//
// Deliberate ownership transfers carry a //distqlint:allow aliasretain
// waiver with a rationale.
package aliasretain

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// TuplePath is the package whose types define the scratch-buffer
// contract. The package itself is exempt: it is the producer side.
const TuplePath = "repro/internal/tuple"

// Analyzer implements the scratch-alias retention check.
var Analyzer = &analysis.Analyzer{
	Name: "aliasretain",
	Doc:  "scratch buffers (EmitFunc Results, shared decode slabs, pooled frames) must not outlive the call without Clone()",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Path == TuplePath {
		return nil
	}
	sums := dataflow.NewSummarizer(pass.Loader)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, sums, fd.Type, fd.Recv, fd.Body)
			// Function literals are separate functions with their own
			// parameters — the EmitFunc callbacks live here.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, sums, fl.Type, nil, fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

// checkFunc runs the escape analysis over one function shape.
func checkFunc(pass *analysis.Pass, sums *dataflow.Summarizer, ftype *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) {
	reach := dataflow.AnalyzeFunc(pass.Info, ftype, recv, body)

	// Collect the scratch Result parameters of this function.
	scratch := make(map[*types.Var]string)
	if ftype.Params != nil {
		for _, f := range ftype.Params.List {
			for _, name := range f.Names {
				v, ok := pass.Info.Defs[name].(*types.Var)
				if !ok || !isResultType(v.Type()) {
					continue
				}
				scratch[v] = fmt.Sprintf("scratch tuple.Result parameter %q", name.Name)
			}
		}
	}
	// ... and the variables a batch cursor yields its views into.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || !isCursorNext(pass, call) {
			return true
		}
		if addr, ok := call.Args[0].(*ast.UnaryExpr); ok {
			if id, ok := addr.X.(*ast.Ident); ok {
				if v := varOf(pass.Info, id); v != nil {
					scratch[v] = fmt.Sprintf("tuple view %q yielded by a batch cursor", id.Name)
				}
			}
		}
		return true
	})

	cfg := dataflow.TaintConfig{
		Info: pass.Info,
		IsSource: func(expr ast.Expr) (string, bool) {
			switch x := expr.(type) {
			case *ast.Ident:
				v := varOf(pass.Info, x)
				if v == nil {
					return "", false
				}
				label, ok := scratch[v]
				return label, ok
			case *ast.CallExpr:
				if label, ok := slabDecode(pass, reach, x); ok {
					return label, true
				}
				if label, ok := poolGet(x); ok {
					return label, true
				}
			}
			return "", false
		},
		SourceResult: func(call *ast.CallExpr, index int) (string, bool) {
			if label, ok := slabDecode(pass, reach, call); ok {
				// Only the decoded Tuple (result 0) aliases the slab;
				// the consumed count, grown slab, and error do not make
				// the *next* decode unsafe.
				if index == 0 {
					return label, true
				}
				return "", false
			}
			if label, ok := poolGet(call); ok {
				return label, true
			}
			return "", false
		},
		Sanitizes: func(call *ast.CallExpr) bool {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && (sel.Sel.Name == "Clone" || sel.Sel.Name == "CloneInto")
		},
		Summary: func(call *ast.CallExpr) *dataflow.Summary {
			return sums.ForCall(pass.Info, call)
		},
	}
	for _, esc := range dataflow.Escapes(reach, cfg) {
		if poolReturn(esc) {
			continue
		}
		pass.Reportf(esc.Expr.Pos(), "%s is %s without Clone(): scratch backing is reused after the call returns (PROTOCOL.md buffer ownership)",
			strings.Join(esc.Sources, " and "), esc.Kind)
	}
}

// poolReturn reports whether the escape hands a pooled value back to
// its pool (defer pool.Put(buf)): that is the end of the pooled
// lifecycle, not a retention.
func poolReturn(esc dataflow.Escape) bool {
	var call *ast.CallExpr
	switch st := esc.Node.(type) {
	case *ast.DeferStmt:
		call = st.Call
	case *ast.GoStmt:
		call = st.Call
	default:
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" {
		return false
	}
	return poolNamed(sel.X)
}

// isCursorNext reports whether call is (*tuple.BatchReader).Next.
func isCursorNext(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := dataflow.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Name() != "Next" || fn.Pkg() == nil || fn.Pkg().Path() != TuplePath {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && strings.HasSuffix(recv.Type().String(), ".BatchReader")
}

// slabDecode reports whether call is tuple.DecodeSlab with a shared
// (non-local) slab argument.
func slabDecode(pass *analysis.Pass, reach *dataflow.Reach, call *ast.CallExpr) (string, bool) {
	fn := dataflow.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Name() != "DecodeSlab" || fn.Pkg() == nil || fn.Pkg().Path() != TuplePath {
		return "", false
	}
	if len(call.Args) < 2 {
		return "", false
	}
	if sharedSlab(pass.Info, reach, call.Args[1]) {
		return "tuple value decoded into a shared slab", true
	}
	return "", false
}

// sharedSlab reports whether the slab expression is rooted outside the
// function's own locals: a field, global, or parameter. A nil literal
// or a function-local slab means each batch owns its backing (the
// legal pattern in the snapshot codec).
func sharedSlab(info *types.Info, reach *dataflow.Reach, slab ast.Expr) bool {
	for {
		switch x := slab.(type) {
		case *ast.ParenExpr:
			slab = x.X
		case *ast.SliceExpr:
			slab = x.X
		case *ast.IndexExpr:
			slab = x.X
		case *ast.SelectorExpr:
			// Field or qualified global: shared memory.
			return true
		case *ast.Ident:
			if x.Name == "nil" {
				return false
			}
			v := varOf(info, x)
			if v == nil {
				return true // unresolved: be safe
			}
			defs := reach.Defs(v)
			if len(defs) == 0 {
				return true // package-level var
			}
			for _, d := range defs {
				if d.Kind == dataflow.DefParam {
					return true
				}
			}
			return false
		default:
			return false // composite/make/call: fresh
		}
	}
}

// poolGet reports whether call is a Get() on a pool-named recycler.
// sync is an external (stubbed) import, so the match is structural: a
// zero-argument Get method on an identifier whose name contains "pool".
func poolGet(call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return "", false
	}
	if poolNamed(sel.X) {
		return "pooled buffer", true
	}
	return "", false
}

// poolNamed reports whether the expression chain mentions a pool:
// framePool, e.bufPool, pools[i].
func poolNamed(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if strings.Contains(strings.ToLower(x.Sel.Name), "pool") {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return strings.Contains(strings.ToLower(x.Name), "pool")
		default:
			return false
		}
	}
}

// isResultType reports whether t is tuple.Result, possibly behind a
// pointer or slice.
func isResultType(t types.Type) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return isResultType(u.Elem())
	case *types.Slice:
		return isResultType(u.Elem())
	case *types.Named:
		obj := u.Obj()
		return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == TuplePath && obj.Name() == "Result"
	}
	return false
}

func varOf(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}
