// Command distqlint runs the repo's custom static-analysis suite (see
// internal/analysis) over package patterns, multichecker-style:
//
//	go run ./cmd/distqlint ./...
//	go run ./cmd/distqlint -only vclockdiscipline ./internal/engine
//	go run ./cmd/distqlint -json ./... | jq .
//	go run ./cmd/distqlint -waivers ./...
//
// It prints one line per finding (file:line:col: analyzer: message) and
// exits 1 if anything fired; -json emits the findings as a JSON array
// instead (CI converts them to GitHub Actions error annotations).
// Findings are suppressed by a //distqlint:allow <analyzer>: <rationale>
// comment on or directly above the offending line; -waivers audits that
// ledger — every waiver with its analyzer, rationale, and location —
// and exits non-zero on malformed or analyzer-unknown waivers. The
// suite is part of `make check` and the CI gate; it must stay green.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/protoexhaustive"
	"repro/internal/analysis/uncheckederr"
	"repro/internal/analysis/vclockdiscipline"
)

// all lists every analyzer in the suite, in report order.
var all = []*analysis.Analyzer{
	protoexhaustive.Analyzer,
	uncheckederr.Analyzer,
	vclockdiscipline.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text lines")
	audit := flag.Bool("waivers", false, "audit //distqlint:allow waivers instead of linting")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: distqlint [-only names] [-list] [-json] [-waivers] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-18s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modRoot, modPath, err := findModule()
	if err != nil {
		fatal(err)
	}
	paths, err := expand(modRoot, modPath, patterns)
	if err != nil {
		fatal(err)
	}

	loader := analysis.NewLoader(analysis.ModuleResolver(modRoot, modPath))
	if *audit {
		os.Exit(auditWaivers(loader, paths, modRoot, *jsonOut))
	}

	found := []jsonDiag{}
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fatal(err)
		}
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			d.Pos.Filename = relPath(modRoot, d.Pos.Filename)
			found = append(found, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
			if !*jsonOut {
				fmt.Println(d.String())
			}
		}
	}
	if *jsonOut {
		emitJSON(found)
	}
	if len(found) > 0 {
		os.Exit(1)
	}
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// waiverEntry is one //distqlint:allow occurrence in the audit ledger.
type waiverEntry struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Rationale string   `json:"rationale"`
	Problems  []string `json:"problems,omitempty"`
}

// emitJSON writes v as a JSON array, never null, for pipeline safety.
func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// auditWaivers lists every waiver directive with its analyzer names,
// rationale, and location. A waiver that names no known analyzer or
// carries no rationale defeats the ledger and fails the audit.
func auditWaivers(loader *analysis.Loader, paths []string, modRoot string, jsonOut bool) int {
	known := make(map[string]bool, len(all))
	for _, a := range all {
		known[a.Name] = true
	}
	entries := []waiverEntry{}
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fatal(err)
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, analysis.WaiverDirective)
					if !ok {
						continue
					}
					entries = append(entries, parseWaiver(pkg.Fset.Position(c.Pos()), rest, known, modRoot))
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].File != entries[j].File {
			return entries[i].File < entries[j].File
		}
		return entries[i].Line < entries[j].Line
	})
	bad := false
	for _, e := range entries {
		if len(e.Problems) > 0 {
			bad = true
		}
	}
	if jsonOut {
		emitJSON(entries)
	} else {
		for _, e := range entries {
			if len(e.Problems) > 0 {
				fmt.Printf("%s:%d: MALFORMED waiver (%s)\n", e.File, e.Line, strings.Join(e.Problems, "; "))
				continue
			}
			fmt.Printf("%s:%d: %s: %s\n", e.File, e.Line, strings.Join(e.Analyzers, ","), e.Rationale)
		}
		fmt.Printf("%d waivers\n", len(entries))
	}
	if bad {
		return 1
	}
	return 0
}

// parseWaiver splits one directive payload into analyzer names and
// rationale, collecting everything wrong with it.
func parseWaiver(pos token.Position, rest string, known map[string]bool, modRoot string) waiverEntry {
	e := waiverEntry{File: relPath(modRoot, pos.Filename), Line: pos.Line}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		e.Problems = append(e.Problems, "directive not followed by a space")
		return e
	}
	names, rationale, hasRationale := strings.Cut(rest, ":")
	e.Analyzers = strings.Fields(strings.ReplaceAll(names, ",", " "))
	e.Rationale = strings.TrimSpace(rationale)
	if len(e.Analyzers) == 0 {
		e.Problems = append(e.Problems, "names no analyzer (blanket waivers are not allowed)")
	}
	for _, name := range e.Analyzers {
		if !known[name] {
			e.Problems = append(e.Problems, fmt.Sprintf("unknown analyzer %q", name))
		}
	}
	if !hasRationale || e.Rationale == "" {
		e.Problems = append(e.Problems, "missing rationale after ':'")
	}
	return e
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distqlint:", err)
	os.Exit(2)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// selectAnalyzers resolves the -only flag against the suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// findModule locates the enclosing module root and its module path.
func findModule() (root, path string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// expand turns package patterns into sorted import paths. Supported
// forms: ./x, ./x/..., x/... and plain import paths inside the module.
func expand(modRoot, modPath string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "./"
			}
		}
		dir := pat
		if strings.HasPrefix(pat, modPath) {
			rel := strings.TrimPrefix(strings.TrimPrefix(pat, modPath), "/")
			dir = filepath.Join(modRoot, filepath.FromSlash(rel))
		} else if !filepath.IsAbs(pat) {
			wd, err := os.Getwd()
			if err != nil {
				return nil, err
			}
			dir = filepath.Join(wd, filepath.FromSlash(pat))
		}
		if !recursive {
			p, err := importPath(modRoot, modPath, dir)
			if err != nil {
				return nil, err
			}
			add(p)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoSource(path) {
				p, err := importPath(modRoot, modPath, path)
				if err != nil {
					return err
				}
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// importPath maps an absolute directory inside the module to its path.
func importPath(modRoot, modPath, dir string) (string, error) {
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, modPath)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}

// hasGoSource reports whether dir directly contains non-test Go files.
func hasGoSource(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// relPath shortens a file path under the module root for readable
// output and stable CI annotations.
func relPath(modRoot, filename string) string {
	if rel, err := filepath.Rel(modRoot, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}
