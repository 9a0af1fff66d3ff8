package uncheckederr_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/uncheckederr"
)

func TestAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", uncheckederr.Analyzer,
		"repro/internal/transport",   // the guarded send API itself: no findings
		"repro/internal/coordinator", // every Send discard shape, plus handled/waived/lookalike
		"repro/internal/spill",       // the guarded store API itself: no findings
		"repro/internal/engine",      // every store discard shape, plus handled/waived
	)
}
