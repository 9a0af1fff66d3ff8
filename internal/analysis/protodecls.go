package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

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
