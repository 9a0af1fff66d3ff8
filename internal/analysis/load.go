package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// A Resolver maps an import path to the directory holding its source,
// or reports that the path is external to the tree under analysis.
type Resolver func(importPath string) (dir string, ok bool)

// ModuleResolver resolves import paths inside one module from source:
// modPath maps to modRoot, modPath/x/y to modRoot/x/y.
func ModuleResolver(modRoot, modPath string) Resolver {
	return func(importPath string) (string, bool) {
		if importPath == modPath {
			return modRoot, true
		}
		rel, ok := strings.CutPrefix(importPath, modPath+"/")
		if !ok {
			return "", false
		}
		return filepath.Join(modRoot, filepath.FromSlash(rel)), true
	}
}

// A Package is one parsed and (best-effort) type-checked package.
type Package struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects tolerated type-check errors. With external
	// imports stubbed out these are expected; they are kept only to aid
	// debugging, never printed by the driver.
	TypeErrors []error

	loader *Loader
}

// A Loader parses and type-checks packages reachable through its
// Resolver, substituting empty stub packages for external imports so
// that analysis works without a module cache or network access.
type Loader struct {
	Fset    *token.FileSet
	resolve Resolver
	pkgs    map[string]*Package
	stubs   map[string]*types.Package
	loading map[string]bool
}

// NewLoader returns a Loader resolving import paths through resolve.
func NewLoader(resolve Resolver) *Loader {
	return &Loader{
		Fset:    token.NewFileSet(),
		resolve: resolve,
		pkgs:    make(map[string]*Package),
		stubs:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
}

// Load parses and type-checks the package with the given import path.
// Results are cached; test files are excluded from analysis.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	dir, ok := l.resolve(importPath)
	if !ok {
		return nil, fmt.Errorf("analysis: cannot resolve %q to a directory", importPath)
	}
	files, name, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", importPath, err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go source in %s", dir)
	}
	pkg := &Package{
		Path:   importPath,
		Name:   name,
		Fset:   l.Fset,
		Files:  files,
		loader: l,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	// Publish before type-checking so import cycles (malformed input)
	// terminate instead of recursing forever; the checker below fills
	// pkg.Types in place.
	l.pkgs[importPath] = pkg
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
		DisableUnusedImportCheck: true,
	}
	// Check never fails fatally here: conf.Error tolerates everything,
	// and the returned package is usable even when incomplete.
	tpkg, _ := conf.Check(importPath, l.Fset, files, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}

// parseDir parses the non-test Go files of dir, in name order.
func (l *Loader) parseDir(dir string) ([]*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, "", err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			// A stray file of another package (e.g. ignored tooling);
			// keep the majority package deterministic by first-seen.
			continue
		}
		files = append(files, f)
	}
	return files, pkgName, nil
}

// loaderImporter adapts Loader to types.Importer: in-tree packages are
// loaded from source, everything else becomes a complete empty stub so
// type-checking proceeds (with tolerated errors) without a module cache.
type loaderImporter Loader

func (li *loaderImporter) Import(importPath string) (*types.Package, error) {
	l := (*Loader)(li)
	if _, ok := l.resolve(importPath); ok && !l.loading[importPath] {
		p, err := l.Load(importPath)
		if err == nil && p.Types != nil {
			return p.Types, nil
		}
	}
	if stub, ok := l.stubs[importPath]; ok {
		return stub, nil
	}
	stub := types.NewPackage(importPath, stubName(importPath))
	stub.MarkComplete()
	l.stubs[importPath] = stub
	return stub, nil
}

// stubName guesses the package name of an external import path.
func stubName(importPath string) string {
	name := path.Base(importPath)
	if i := strings.LastIndex(name, "-"); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// ImportName reports the name under which file imports importPath:
// the alias if renamed, the default base name otherwise. ok is false
// if the file does not import the path (blank and dot imports yield
// ok=true with names "_" and ".").
func ImportName(file *ast.File, importPath string) (string, bool) {
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != importPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name, true
		}
		return stubName(p), true
	}
	return "", false
}
