package core

import "repro/internal/partition"

// ProductivityTracker implements the paper's suggested alternative cost
// model (§2): instead of the cumulative P_output/P_size ratio, it keeps
// per-group snapshots of the counters and maintains an exponentially
// weighted moving average of the *incremental* productivity
// Δoutput/Δbytes, so recently productive groups rank high even if their
// history was poor, and vice versa. Under workloads whose hot set shifts
// over time, the amortized metric re-ranks groups within a few
// observation periods while the lifetime ratio lags arbitrarily far
// behind (see the AblationShift experiment).
//
// The tracker is fed from the local adaptation controller's statistics
// timer (sr_timer); like everything in core it performs no I/O.
type ProductivityTracker struct {
	alpha  float64
	last   map[partition.ID]GroupStats
	scores map[partition.ID]float64
}

// NewProductivityTracker returns a tracker smoothing with factor alpha in
// (0,1]: higher alpha weighs recent periods more. A typical value is 0.5.
func NewProductivityTracker(alpha float64) *ProductivityTracker {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &ProductivityTracker{
		alpha:  alpha,
		last:   make(map[partition.ID]GroupStats),
		scores: make(map[partition.ID]float64),
	}
}

// Observe folds one statistics snapshot into the moving averages. Call it
// on every sr_timer expiry with the operator's current group stats.
func (t *ProductivityTracker) Observe(groups []GroupStats) {
	for _, g := range groups {
		prev, seen := t.last[g.ID]
		t.last[g.ID] = g
		if !seen {
			t.scores[g.ID] = g.Productivity()
			continue
		}
		dOut := float64(g.Output - prev.Output)
		dBytes := float64(g.CumBytes - prev.CumBytes)
		if dBytes <= 0 {
			// No new data this period: decay toward zero activity so
			// groups that stopped receiving input lose rank gradually.
			t.scores[g.ID] *= 1 - t.alpha/2
			continue
		}
		inc := dOut / dBytes
		t.scores[g.ID] = t.alpha*inc + (1-t.alpha)*t.scores[g.ID]
	}
}

// Score returns the smoothed productivity of a group, falling back to the
// raw lifetime metric for groups never observed.
func (t *ProductivityTracker) Score(g GroupStats) float64 {
	if s, ok := t.scores[g.ID]; ok {
		return s
	}
	return g.Productivity()
}

// Forget drops a group's history (after it relocated away).
func (t *ProductivityTracker) Forget(id partition.ID) {
	delete(t.last, id)
	delete(t.scores, id)
}

// SmoothedLessProductive is the throughput-oriented spill policy ranked
// by the tracker's amortized scores instead of the lifetime ratio.
type SmoothedLessProductive struct {
	T *ProductivityTracker
}

// Name implements Policy.
func (p SmoothedLessProductive) Name() string { return "push-less-productive-ewma" }

// SelectVictims implements Policy.
func (p SmoothedLessProductive) SelectVictims(groups []GroupStats, target int64) []partition.ID {
	return LeastProductive(groups, target, p.T.Score)
}
