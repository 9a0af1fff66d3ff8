// Package componentboundary enforces the design rule that no component
// touches another component's state except through proto messages over
// the transport. Concretely, on the import graph:
//
//   - repro/internal/coordinator and repro/internal/engine are peers:
//     neither may import the other, and neither may import the cluster
//     harness above them. They share only message/transport vocabulary
//     (proto, transport, partition, core, ...).
//   - repro/internal/cluster is the composition root: it alone among
//     internal packages may import coordinator and engine, to construct
//     and wire them.
//   - repro/internal/experiments alone among internal packages may
//     import cluster.
//   - repro/distq, the public facade, builds its clusters through the
//     composition root like everybody else: it may import cluster, and
//     not coordinator, engine or split.
//   - the other entry points above the composition root (cmd/*,
//     examples) are outside the rule: a node binary is a main over its
//     one component.
//
// Breaking these edges is how exact-once cleanup and the 8-step
// relocation protocol silently rot: a coordinator that reaches into an
// engine's state bypasses the FIFO message order every proof in
// PROTOCOL.md leans on.
package componentboundary

import (
	"strings"

	"repro/internal/analysis"
)

const (
	coordinatorPath = "repro/internal/coordinator"
	enginePath      = "repro/internal/engine"
	clusterPath     = "repro/internal/cluster"
	experimentsPath = "repro/internal/experiments"
	splitPath       = "repro/internal/split"
	distqPath       = "repro/distq"
	internalPrefix  = "repro/internal/"
)

// Analyzer implements the component-boundary check.
var Analyzer = &analysis.Analyzer{
	Name: "componentboundary",
	Doc:  "components interact only via proto/transport messages: coordinator, engine and cluster must not reach into each other",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			target := strings.Trim(imp.Path.Value, `"`)
			if msg := forbidden(pass.Path, target); msg != "" {
				pass.Reportf(imp.Pos(), "component boundary: %s", msg)
			}
		}
	}
	return nil
}

// forbidden reports why importer may not import target, or "".
func forbidden(importer, target string) string {
	if importer == distqPath {
		switch target {
		case coordinatorPath, enginePath, splitPath:
			return importer + " may not import " + target +
				": only the cluster composition root constructs components"
		}
		return ""
	}
	if !strings.HasPrefix(importer, internalPrefix) {
		return "" // entry points above the composition root are exempt
	}
	switch target {
	case coordinatorPath, enginePath:
		switch importer {
		case clusterPath, target:
			return "" // composition root, or the package itself
		case coordinatorPath, enginePath:
			return importer + " may not import " + target +
				": peer components exchange proto messages over the transport, never state"
		default:
			return importer + " may not import " + target +
				": only the cluster composition root constructs components"
		}
	case clusterPath:
		switch importer {
		case clusterPath, experimentsPath:
			return ""
		default:
			return importer + " may not import " + clusterPath +
				": components must not depend on the harness above them"
		}
	}
	return ""
}
