package main

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// The component boundary: no component touches another component's
// state except through proto messages over the transport. On the import
// graph of the packages under internal/ and of distq:
//
//   - coordinator and engine are peers: neither imports the other, nor
//     the cluster harness above them;
//   - cluster, the composition root, alone imports coordinator and
//     engine, to construct and wire them;
//   - experiments alone imports cluster, besides distq;
//   - distq, the public facade, builds its clusters through the root: it
//     imports cluster, and none of coordinator, engine or split.
//
// The entry points above the root (cmd/*, examples, benchmark) are
// outside the rule: a node binary is a main over its one component.
// Breaking these edges is how exact-once cleanup and the relocation
// protocol silently rot: a coordinator that reaches into an engine's
// state bypasses the FIFO message order every proof in PROTOCOL.md
// leans on.
const (
	coordinatorPkg = "repro/internal/coordinator"
	enginePkg      = "repro/internal/engine"
	clusterPkg     = "repro/internal/cluster"
	experimentsPkg = "repro/internal/experiments"
	splitPkg       = "repro/internal/split"
	distqPkg       = "repro/distq"
)

// crossesBoundary reports why importer may not import target, or "".
func crossesBoundary(importer, target string) string {
	switch {
	case importer == distqPkg:
		if target == coordinatorPkg || target == enginePkg || target == splitPkg {
			return "only the cluster composition root constructs components"
		}
	case !strings.HasPrefix(importer, "repro/internal/"):
		// an entry point above the composition root
	case target == coordinatorPkg || target == enginePkg:
		if importer == coordinatorPkg || importer == enginePkg {
			return "peer components exchange proto messages over the transport, never state"
		}
		if importer != clusterPkg {
			return "only the cluster composition root constructs components"
		}
	case target == clusterPkg && importer != experimentsPkg:
		return "components must not depend on the harness above them"
	}
	return ""
}

// TestComponentBoundary holds crossesBoundary to one row per rule, then
// checks every import of every non-test file in the module against it,
// so a forbidden import anywhere fails here.
func TestComponentBoundary(t *testing.T) {
	for _, row := range []struct {
		importer, target string
		allowed          bool
	}{
		{coordinatorPkg, enginePkg, false}, // peers
		{enginePkg, coordinatorPkg, false},
		{enginePkg, clusterPkg, false}, // the harness above them
		{coordinatorPkg, clusterPkg, false},
		{"repro/internal/spill", enginePkg, false}, // construction outside the root
		{"repro/internal/bench", coordinatorPkg, false},
		{"repro/internal/spill", clusterPkg, false},
		{clusterPkg, coordinatorPkg, true}, // the composition root
		{clusterPkg, enginePkg, true},
		{experimentsPkg, clusterPkg, true},
		{"repro/cmd/tool", clusterPkg, true}, // entry points are exempt
		{"repro/cmd/tool", coordinatorPkg, true},
		{"repro/cmd/tool", enginePkg, true},
		{"repro/examples/tour", enginePkg, true},
		{distqPkg, clusterPkg, true}, // the facade goes through the root
		{distqPkg, coordinatorPkg, false},
		{distqPkg, enginePkg, false},
		{distqPkg, splitPkg, false},
		{enginePkg, splitPkg, true}, // shared vocabulary
		{"repro/internal/spill", "repro/internal/join", true},
	} {
		if why := crossesBoundary(row.importer, row.target); (why == "") != row.allowed {
			t.Errorf("%s importing %s: allowed = %v, want %v (%s)", row.importer, row.target, why == "", row.allowed, why)
		}
	}

	edges := 0
	err := filepath.WalkDir("../..", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); name == "testdata" || dir != "../.." && strings.HasPrefix(name, ".") {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel("../..", dir)
		if err != nil {
			return err
		}
		importer := filepath.ToSlash(filepath.Join("repro", rel))
		for _, target := range pkg.Imports {
			if why := crossesBoundary(importer, target); why != "" {
				t.Errorf("%s may not import %s: %s", importer, target, why)
			}
			if importer == clusterPkg && (target == coordinatorPkg || target == enginePkg) {
				edges++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if edges != 2 {
		t.Fatalf("the walk saw %d of the composition root's 2 component imports: it did not read the module", edges)
	}
}
