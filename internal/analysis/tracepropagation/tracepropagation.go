// Package tracepropagation enforces the PR-6 trace-propagation scheme:
// every control-plane proto message carries a Trace obs.TraceContext
// field, and protocol handlers echo or forward the incoming trace onto
// every reply they construct. Data-plane messages (tuple batches,
// result counts) are exempted with a //distq:plane data directive and
// must NOT carry a Trace field — the data hot path stays
// allocation-free.
//
// On the proto package itself the analyzer checks:
//
//   - every message type in the wire-kind table (analysis.WireKinds)
//     either has a Trace field of type obs.TraceContext or bears
//     //distq:plane data;
//   - a //distq:plane data message must not carry a Trace field;
//   - directives are well-formed ("data" is the only known plane) and
//     sit on types in the table.
//
// In component packages the analyzer finds "traced scopes" — function
// bodies with a parameter of a traced proto type, and type-switch case
// clauses whose implicit variable has a traced proto type — and flags
// every composite literal of a traced proto type inside such a scope
// that does not set Trace to a trace-derived value: a .Trace selector
// (echo), a call returning obs.TraceContext (an active span's
// Context()), a TraceContext parameter, or a local variable whose
// reaching definitions are themselves trace-derived. An explicit zero
// obs.TraceContext{} drops the incoming trace and is flagged.
//
// Deliberate exceptions carry a //distqlint:allow tracepropagation
// waiver with a rationale.
package tracepropagation

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// Package paths the invariant is anchored to.
const (
	ProtoPath = "repro/internal/proto"
	ObsPath   = "repro/internal/obs"
)

// PlaneDirective marks a message's plane; "data" is the only known one.
const PlaneDirective = "//distq:plane"

// Analyzer implements the trace-propagation check.
var Analyzer = &analysis.Analyzer{
	Name: "tracepropagation",
	Doc:  "control-plane proto messages carry a Trace field that handlers echo/forward; Data never does",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Path == ProtoPath {
		checkProto(pass)
		return nil
	}
	return checkHandlers(pass)
}

// ---- proto-package side ----

// checkProto verifies the message vocabulary: every registered message
// is either traced or declared data-plane, never both.
func checkProto(pass *analysis.Pass) {
	typePos, plane := analysis.TypeDirectives(pass.Files, PlaneDirective)
	registered := make(map[string]bool)
	for _, k := range analysis.WireKinds(pass.Files) {
		name := k.Name
		registered[name] = true
		pos := typePos[name]
		if pos == token.NoPos {
			continue
		}
		hasTrace := false
		if pass.Pkg != nil {
			if tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					hasTrace = structTrace(st)
				}
			}
		}
		p, declared := plane[name]
		switch p = strings.TrimSpace(p); {
		case declared && p != "data":
			pass.Reportf(pos, "proto.%s: unknown plane %q in %s directive (only \"data\" is known)", name, p, PlaneDirective)
		case declared && hasTrace:
			pass.Reportf(pos, "proto.%s is data-plane (%s data) but carries a Trace field: trace contexts ride only control-plane messages, the data hot path stays allocation-free", name, PlaneDirective)
		case !declared && !hasTrace:
			pass.Reportf(pos, "proto.%s carries no Trace obs.TraceContext field: control-plane messages must let handlers echo/forward the trace (PR-6); data-plane messages are exempted with %s data", name, PlaneDirective)
		}
	}
	for name := range plane {
		if !registered[name] {
			pass.Reportf(typePos[name], "proto.%s carries a %s directive but is missing from the wire-kind table: it cannot travel the wire", name, PlaneDirective)
		}
	}
}

// structTrace reports whether st has a Trace field of obs.TraceContext.
func structTrace(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "Trace" && isTraceContext(f.Type()) {
			return true
		}
	}
	return false
}

// isTraceContext reports whether t is obs.TraceContext.
func isTraceContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "TraceContext" && obj.Pkg() != nil && obj.Pkg().Path() == ObsPath
}

// ---- component side ----

// A scope is a region handling a traced proto message.
type scope struct {
	lo, hi token.Pos
	fn     *ast.FuncDecl // enclosing declaration, for reaching defs
	msg    string        // the handled message's type name, for messages
}

// checkHandlers flags traced-message literals that drop the trace.
func checkHandlers(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if name, ok := analysis.ImportName(file, ProtoPath); !ok || name == "_" {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scopes := tracedScopes(pass, fd)
			if len(scopes) == 0 {
				continue
			}
			var reach *dataflow.Reach // built lazily, once per function
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				name, traced := tracedLit(pass, cl)
				if !traced {
					return true
				}
				sc := innermost(scopes, cl.Pos())
				if sc == nil {
					return true
				}
				val := traceElt(pass, cl)
				if val == nil {
					pass.Reportf(cl.Pos(), "constructs proto.%s without propagating a trace while handling proto.%s: set Trace from the handled message (m.Trace) or an active span's Context() (PR-6 trace propagation)", name, sc.msg)
					return true
				}
				if reach == nil {
					g := dataflow.BuildCFG(fd.Body)
					reach = dataflow.ReachingDefs(g, pass.Info, fd.Type, fd.Recv)
				}
				if !traceDerived(pass, reach, val, 0) {
					pass.Reportf(val.Pos(), "sets proto.%s.Trace to a value not derived from the incoming trace or an active span while handling proto.%s: echo m.Trace or forward a span's Context() (PR-6 trace propagation)", name, sc.msg)
				}
				return true
			})
		}
	}
	return nil
}

// tracedScopes collects the regions of fd that handle a traced message:
// the whole body when a parameter has a traced proto type, and each
// type-switch case clause whose implicit variable does.
func tracedScopes(pass *analysis.Pass, fd *ast.FuncDecl) []scope {
	var out []scope
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			tv, ok := pass.Info.Types[f.Type]
			if !ok {
				continue
			}
			if name, ok := tracedProto(tv.Type); ok {
				out = append(out, scope{fd.Body.Pos(), fd.Body.End(), fd, name})
				break
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Implicits[cc]
		if !ok {
			return true
		}
		if name, ok := tracedProto(obj.Type()); ok {
			out = append(out, scope{cc.Pos(), cc.End(), fd, name})
		}
		return true
	})
	return out
}

// innermost picks the smallest scope containing pos, or nil.
func innermost(scopes []scope, pos token.Pos) *scope {
	var best *scope
	for i := range scopes {
		sc := &scopes[i]
		if pos < sc.lo || pos >= sc.hi {
			continue
		}
		if best == nil || sc.hi-sc.lo < best.hi-best.lo {
			best = sc
		}
	}
	return best
}

// tracedProto reports whether t (possibly behind a pointer) is a proto
// message type carrying a Trace field, and its name.
func tracedProto(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != ProtoPath {
		return "", false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || !structTrace(st) {
		return "", false
	}
	return obj.Name(), true
}

// tracedLit reports whether cl constructs a traced proto message.
func tracedLit(pass *analysis.Pass, cl *ast.CompositeLit) (string, bool) {
	tv, ok := pass.Info.Types[cl]
	if !ok {
		return "", false
	}
	return tracedProto(tv.Type)
}

// traceElt returns the expression assigned to the literal's Trace
// field, or nil when the field is omitted. A positional literal covers
// every field, so its Trace slot is found by field index.
func traceElt(pass *analysis.Pass, cl *ast.CompositeLit) ast.Expr {
	if len(cl.Elts) > 0 {
		if _, keyed := cl.Elts[0].(*ast.KeyValueExpr); !keyed {
			if tv, ok := pass.Info.Types[cl]; ok {
				if st, ok := tv.Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields() && i < len(cl.Elts); i++ {
						if st.Field(i).Name() == "Trace" {
							return cl.Elts[i]
						}
					}
				}
			}
			return nil
		}
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Trace" {
			return kv.Value
		}
	}
	return nil
}

// traceDerived reports whether expr carries a trace rooted in the
// incoming message or an active span.
func traceDerived(pass *analysis.Pass, reach *dataflow.Reach, expr ast.Expr, depth int) bool {
	if depth > 8 {
		return false
	}
	switch x := expr.(type) {
	case *ast.ParenExpr:
		return traceDerived(pass, reach, x.X, depth+1)
	case *ast.SelectorExpr:
		// Echo: any .Trace field read (the handled message's, a pending
		// request's, a buffered command's).
		return x.Sel.Name == "Trace"
	case *ast.CallExpr:
		// Forward: a call producing a TraceContext (span.Context(), a
		// helper deriving one).
		tv, ok := pass.Info.Types[x]
		return ok && isTraceContext(tv.Type)
	case *ast.Ident:
		v, ok := pass.Info.Uses[x].(*types.Var)
		if !ok {
			return false
		}
		defs := reach.DefsReaching(x)
		if len(defs) == 0 {
			// Non-local (a field would be a selector; this is a package
			// var or unresolved): not traceable.
			return false
		}
		for _, d := range defs {
			switch d.Kind {
			case dataflow.DefParam:
				if !isTraceContext(v.Type()) {
					return false
				}
			case dataflow.DefAssign, dataflow.DefRange:
				if d.Rhs == nil || !traceDerived(pass, reach, d.Rhs, depth+1) {
					return false
				}
			default:
				// DefDecl zero value, DefCase: no trace.
				return false
			}
		}
		return true
	}
	// Composite literals (obs.TraceContext{} drops the trace), binary
	// expressions, etc.: not derived.
	return false
}
