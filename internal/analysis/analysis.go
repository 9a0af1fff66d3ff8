// Package analysis is a small, dependency-free mirror of the
// golang.org/x/tools/go/analysis API: an Analyzer inspects one
// type-checked package at a time and reports Diagnostics. The repo's
// static invariants (virtual-time discipline, protocol exhaustiveness,
// unchecked errors) are enforced by the analyzers under
// this directory, driven by cmd/distqlint and by the analysistest
// harness in tests.
//
// The container building this repo has no module proxy access, so the
// framework deliberately uses only the standard library: packages are
// parsed with go/parser and type-checked with go/types, resolving
// in-module imports from source and substituting empty stub packages
// for everything else (see Loader). Analyzers therefore treat type
// information as best-effort and fall back to syntax where possible.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and waiver comments.
	Name string
	// Doc states the invariant the analyzer guards, first line short.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(*Pass) error
}

// A Pass presents one package to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (e.g. "repro/internal/engine").
	Path string
	Fset *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// Pkg and Info carry best-effort type information: in-module
	// dependencies are fully loaded, all other imports are stubs, and
	// type errors are tolerated. Entries may be missing or Invalid.
	Pkg  *types.Package
	Info *types.Info
	// Loader lets analyzers parse sibling packages (e.g. the proto
	// registry) through the same path resolver as the package itself.
	Loader *Loader

	diags *[]Diagnostic
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// WaiverDirective is the comment that suppresses a diagnostic on its
// line (trailing) or on the line directly below it (leading), e.g.
//
//	ch := time.After(d) //distqlint:allow vclockdiscipline: watchdog
const WaiverDirective = "//distqlint:allow"

// Run executes the analyzers over one loaded package and returns the
// surviving diagnostics (waived findings are dropped), sorted by
// position. Analyzer errors (not findings) are reported as-is.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Loader:   pkg.loader,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = filterWaived(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// filterWaived drops diagnostics covered by a WaiverDirective comment.
func filterWaived(pkg *Package, diags []Diagnostic) []Diagnostic {
	// waived[file][line] = set of analyzer names (or "" for all).
	waived := make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, WaiverDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				names := strings.FieldsFunc(rest, func(r rune) bool {
					return r == ' ' || r == ',' || r == ':' || r == '\t'
				})
				m := waived[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					waived[pos.Filename] = m
				}
				if len(names) == 0 {
					m[pos.Line] = append(m[pos.Line], "")
				} else {
					// Only the analyzer names before any rationale
					// matter; unknown words are harmless.
					m[pos.Line] = append(m[pos.Line], names...)
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if lineWaives(waived, d, 0) || lineWaives(waived, d, -1) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

func lineWaives(waived map[string]map[int][]string, d Diagnostic, off int) bool {
	for _, name := range waived[d.Pos.Filename][d.Pos.Line+off] {
		if name == "" || name == d.Analyzer {
			return true
		}
	}
	return false
}
