package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// WireKindTable names the proto package's registry of what may travel
// the wire: a package-level composite literal with one codec
// constructor call per message type, which names the type either as an
// explicit type argument or as the parameter of its field-list literal:
//
//	var wireKinds = [...]wireCodec{
//		WireData: bulk[Data](sizeData, appendData, decodeData),
//		5:        control(func(m *Hello) []any { return []any{&m.Node} }),
//	}
const WireKindTable = "wireKinds"

// A WireKindDecl is one registered message type, at its table entry.
type WireKindDecl struct {
	Name string
	Pos  token.Pos
}

// WireKinds reads the wire-kind table out of the proto package's
// syntax, in table order, first registration of each type only.
func WireKinds(files []*ast.File) []WireKindDecl {
	var out []WireKindDecl
	seen := make(map[string]bool)
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if len(vs.Names) != 1 || vs.Names[0].Name != WireKindTable || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, elt := range lit.Elts {
					if name := rowType(elt); name != "" && !seen[name] {
						seen[name] = true
						out = append(out, WireKindDecl{Name: name, Pos: elt.Pos()})
					}
				}
			}
		}
	}
	return out
}

// rowType returns T for a table row `key: ctor[T](...)` or
// `key: ctor(func(m *T) ...)`: the first type argument or pointer
// parameter type the row mentions.
func rowType(row ast.Expr) (name string) {
	ast.Inspect(row, func(n ast.Node) bool {
		var t ast.Expr
		switch x := n.(type) {
		case *ast.IndexExpr:
			t = x.Index
		case *ast.StarExpr:
			t = x.X
		}
		if id, ok := t.(*ast.Ident); ok && name == "" {
			name = id.Name
		}
		return name == ""
	})
	return name
}

// TypeDirectives reads the proto vocabulary's per-type //-directives:
// pos holds every declared type's position, text the remainder of the
// directive line for each type whose doc comment carries one.
func TypeDirectives(files []*ast.File, directive string) (pos map[string]token.Pos, text map[string]string) {
	pos, text = make(map[string]token.Pos), make(map[string]string)
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				pos[ts.Name.Name] = ts.Pos()
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						if rest, ok := strings.CutPrefix(c.Text, directive); ok {
							text[ts.Name.Name] = rest
						}
					}
				}
			}
		}
	}
	return pos, text
}
