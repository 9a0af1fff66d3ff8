// Package protoexhaustive checks that the proto message vocabulary and
// the components' handler switches stay in sync.
//
// Every message type in repro/internal/proto carries a directive naming
// the component(s) whose handler must accept it:
//
//	//distq:handledby coordinator, engine
//	type Tick struct{ ... }
//
// The analyzer enforces, on the proto package itself, that directives
// name only known components. (That the directed types are exactly the
// wire-kind table's is proto's own TestWireTableComplete, which reads
// the real table.) And on every type switch whose cases mention proto
// types:
//
//   - the switch is attributable to a component, either through a
//     //distq:handles <component> comment on or directly above its
//     line, or because its package's base name is a component name;
//   - the switch has a case for every proto type directed at that
//     component. Extra cases are fine (a component may opportunistically
//     understand more), missing ones are exactly the "engine silently
//     drops StartCleanup" class of bug this guards against.
package protoexhaustive

import (
	"go/ast"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// ProtoPath is the import path of the message vocabulary package.
const ProtoPath = "repro/internal/proto"

// Directives understood by the analyzer.
const (
	HandledByDirective = "//distq:handledby"
	HandlesDirective   = "//distq:handles"
)

// components are the names usable in directives. splithost is the split
// Router on the generator machine, whose control handler lives in
// package split.
var components = map[string]bool{
	"coordinator": true,
	"engine":      true,
	"generator":   true,
	"appserver":   true,
	"splithost":   true,
}

// Analyzer implements the protocol-exhaustiveness check.
var Analyzer = &analysis.Analyzer{
	Name: "protoexhaustive",
	Doc:  "every proto message has a handler, and every handler switch covers its component's messages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Path == ProtoPath {
		checkRegistry(pass)
		return nil
	}
	return checkSwitches(pass)
}

// checkRegistry runs the proto-package self-check.
func checkRegistry(pass *analysis.Pass) {
	typePos, directed := analysis.TypeDirectives(pass.Files, HandledByDirective)
	for name, comps := range directed {
		for _, c := range splitNames(comps) {
			if !components[c] {
				pass.Reportf(typePos[name], "proto.%s: unknown component %q in %s directive", name, c, HandledByDirective)
			}
		}
	}
}

// checkSwitches verifies every proto type switch in the package.
func checkSwitches(pass *analysis.Pass) error {
	var directed map[string]string // proto type -> its handledby list
	for _, file := range pass.Files {
		protoName, ok := analysis.ImportName(file, ProtoPath)
		if !ok || protoName == "_" || protoName == "." {
			continue
		}
		if directed == nil {
			pkg, err := pass.Loader.Load(ProtoPath)
			if err != nil {
				return err
			}
			_, directed = analysis.TypeDirectives(pkg.Files, HandledByDirective)
		}
		annotations := handlesAnnotations(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			handled := protoCases(sw, protoName)
			if len(handled) == 0 {
				return true
			}
			line := pass.Fset.Position(sw.Pos()).Line
			component := annotations[line-1]
			if component == "" {
				component = annotations[line]
			}
			if component == "" {
				base := pass.Path[strings.LastIndex(pass.Path, "/")+1:]
				if components[base] {
					component = base
				}
			}
			if component == "" {
				if len(handled) >= 2 {
					pass.Reportf(sw.Pos(), "proto message switch is not attributable to a component: add a %s <component> comment above it", HandlesDirective)
				}
				return true
			}
			var missing []string
			for name, comps := range directed {
				for _, c := range splitNames(comps) {
					if c == component && !handled[name] {
						missing = append(missing, name)
					}
				}
			}
			sort.Strings(missing)
			for _, name := range missing {
				pass.Reportf(sw.Pos(), "component %s handler misses proto.%s (required by its %s directive)", component, name, HandledByDirective)
			}
			return true
		})
	}
	return nil
}

// protoCases reports the proto type names mentioned in the switch cases.
func protoCases(sw *ast.TypeSwitchStmt, protoName string) map[string]bool {
	handled := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			if star, ok := expr.(*ast.StarExpr); ok {
				expr = star.X
			}
			sel, ok := expr.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == protoName {
				handled[sel.Sel.Name] = true
			}
		}
	}
	return handled
}

// handlesAnnotations maps comment line -> component for every
// //distq:handles directive in the file.
func handlesAnnotations(pass *analysis.Pass, file *ast.File) map[int]string {
	out := make(map[int]string)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, HandlesDirective)
			if !ok || strings.HasPrefix(rest, "by") {
				// "handledby" shares the "handles" prefix; skip it.
				continue
			}
			names := splitNames(rest)
			if len(names) == 1 {
				out[pass.Fset.Position(c.Pos()).Line] = names[0]
			}
		}
	}
	return out
}

// splitNames splits a directive payload on spaces and commas.
func splitNames(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == ',' || r == '\t'
	})
}
