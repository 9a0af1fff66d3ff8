package componentboundary_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/componentboundary"
)

func TestAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", componentboundary.Analyzer,
		"repro/internal/coordinator", // peer import
		"repro/internal/engine",      // harness import
		"repro/internal/spill",       // component construction outside the root
		"repro/internal/cluster",     // composition root: allowed
		"repro/internal/experiments", // may drive the harness
		"repro/cmd/tool",             // entry points are exempt
		"repro/distq",                // ... but the facade goes through the root
	)
}
