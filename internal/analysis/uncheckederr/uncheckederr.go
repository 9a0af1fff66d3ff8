// Package uncheckederr forbids discarding the error result of the calls
// whose failure this codebase cannot afford to lose, listed in targets:
//
//   - transport sends. Every protocol step travels through
//     transport.Endpoint.Send; a swallowed send error is a message the
//     sender believes delivered and the receiver never saw — exactly the
//     silent stall the relocation timeout/abort machinery exists to make
//     loud. Matched by signature: a method named Send taking
//     (partition.NodeID, proto.Message) and returning error, on any
//     receiver (the Endpoint interface or a concrete endpoint).
//   - spill store I/O. Spilled partition groups are the durable half of
//     the paper's exact-once cleanup guarantee: a swallowed
//     Write/Read/Remove/Spill/Install error silently loses state that
//     the cleanup phase will later report as "clean". Matched by
//     package: any function or method declared in repro/internal/spill
//     whose final result is error.
//
// The error counts as discarded when the call stands alone as a
// statement (including go/defer), or when the error's position on the
// left side of an assignment is the blank identifier. Deliberate
// discards (best-effort sends on shutdown paths, fault injection that
// models loss) carry a //distqlint:allow uncheckederr waiver with a
// rationale.
package uncheckederr

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// A target is one family of calls whose error must be handled.
type target struct {
	// callee names fn for the diagnostic, or returns "" when fn (whose
	// final result is known to be error) is not one of the family.
	callee func(pass *analysis.Pass, fn *types.Func, sig *types.Signature) string
	// why is the consequence of losing the error.
	why string
}

var targets = []target{
	{endpointSend, "an unhandled send failure is a silent protocol stall"},
	{storeIO, "spill store I/O errors are part of the exact-once cleanup guarantee"},
}

// Analyzer implements the unchecked-error check.
var Analyzer = &analysis.Analyzer{
	Name: "uncheckederr",
	Doc:  "errors from transport sends and spill store I/O must be handled, not discarded",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				check(pass, st.X)
			case *ast.GoStmt:
				check(pass, st.Call)
			case *ast.DeferStmt:
				check(pass, st.Call)
			case *ast.AssignStmt:
				// The error is every target's final result, so only the
				// last left-hand slot matters.
				if id, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident); ok && id.Name == "_" && len(st.Rhs) == 1 {
					check(pass, st.Rhs[0])
				}
			}
			return true
		})
	}
	return nil
}

// check flags expr, whose error result is known to be discarded, if it
// calls one of the targets.
func check(pass *analysis.Pass, expr ast.Expr) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return
	}
	last, ok := sig.Results().At(sig.Results().Len() - 1).Type().(*types.Named)
	if !ok || last.Obj().Pkg() != nil || last.Obj().Name() != "error" {
		return
	}
	for _, t := range targets {
		if name := t.callee(pass, fn, sig); name != "" {
			pass.Reportf(call.Pos(), "discarded error from %s: %s", name, t.why)
			return
		}
	}
}

// endpointSend matches the transport endpoint Send signature and names
// the receiver type, shortened relative to the package under analysis.
func endpointSend(pass *analysis.Pass, fn *types.Func, sig *types.Signature) string {
	params := sig.Params()
	if fn.Name() != "Send" || sig.Recv() == nil || sig.Results().Len() != 1 || params.Len() != 2 ||
		params.At(0).Type().String() != "repro/internal/partition.NodeID" ||
		params.At(1).Type().String() != "repro/internal/proto.Message" {
		return ""
	}
	return types.TypeString(sig.Recv().Type(), func(p *types.Package) string {
		if p == pass.Pkg {
			return ""
		}
		return p.Name()
	})
}

// storeIO matches everything declared in the spill store package.
func storeIO(_ *analysis.Pass, fn *types.Func, _ *types.Signature) string {
	if fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/spill" {
		return ""
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
