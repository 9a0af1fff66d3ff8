package experiments

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// TestForcedWithinCap holds Figure 14's cap check to the engines'
// forced-spill byte counters, summed over nodes: up to the cap plus one
// overshooting selection (10 %) passes, more fails, and local spill bytes
// and the coordinator's forced-spill count are not bytes forced.
func TestForcedWithinCap(t *testing.T) {
	const limit = 1000
	result := func(forced float64) *cluster.Result {
		counter := func(name, node, kind string, v float64) obs.MetricValue {
			labels := map[string]string{"node": node}
			if kind != "" {
				labels["kind"] = kind
			}
			return obs.MetricValue{Name: name, Kind: "counter", Labels: labels, Value: v}
		}
		return &cluster.Result{Metrics: []obs.MetricValue{
			counter("distq_engine_spill_bytes_total", "m1", "forced", forced/2),
			counter("distq_engine_spill_bytes_total", "m2", "forced", forced/2),
			counter("distq_engine_spill_bytes_total", "m1", "local", 10*limit),
			counter("distq_coordinator_forced_spills_total", "gc", "", 10*limit),
		}}
	}
	for _, c := range []struct {
		forced float64
		want   bool
	}{
		{limit / 2, true},
		{limit + limit/10, true},
		{limit + limit/10 + 2, false},
	} {
		if got := forcedWithinCap(result(c.forced), limit); got != c.want {
			t.Errorf("%.0f bytes forced against a cap of %d: within = %v, want %v", c.forced, limit, got, c.want)
		}
	}
}
