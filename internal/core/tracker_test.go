package core

import "testing"

func TestTrackerFirstObservationUsesRawMetric(t *testing.T) {
	tr := NewProductivityTracker(0.5)
	g := GroupStats{ID: 1, Size: 100, CumBytes: 100, Output: 50}
	tr.Observe([]GroupStats{g})
	if got := tr.Score(g); got != 0.5 {
		t.Fatalf("Score = %v, want raw 0.5", got)
	}
}

func TestTrackerUnseenGroupFallsBack(t *testing.T) {
	tr := NewProductivityTracker(0.5)
	g := GroupStats{ID: 9, Size: 100, CumBytes: 200, Output: 100}
	if got := tr.Score(g); got != 0.5 {
		t.Fatalf("fallback Score = %v, want 0.5", got)
	}
}

func TestTrackerAdaptsToShift(t *testing.T) {
	tr := NewProductivityTracker(0.5)
	// Period 0: group was very productive.
	hot := GroupStats{ID: 1, CumBytes: 1000, Output: 1000}
	tr.Observe([]GroupStats{hot})
	// Periods 1..6: the group keeps growing but stops producing.
	g := hot
	for i := 0; i < 6; i++ {
		g.CumBytes += 1000 // new data
		// Output unchanged: incremental productivity 0.
		tr.Observe([]GroupStats{g})
	}
	smoothed := tr.Score(g)
	raw := g.Productivity()
	if smoothed >= raw/4 {
		t.Fatalf("smoothed %v did not decay below lifetime %v after the shift", smoothed, raw)
	}
}

func TestTrackerDecaysIdleGroups(t *testing.T) {
	tr := NewProductivityTracker(0.5)
	g := GroupStats{ID: 1, CumBytes: 100, Output: 100}
	tr.Observe([]GroupStats{g})
	before := tr.Score(g)
	for i := 0; i < 5; i++ {
		tr.Observe([]GroupStats{g}) // no deltas at all
	}
	if after := tr.Score(g); after >= before {
		t.Fatalf("idle group score did not decay: %v -> %v", before, after)
	}
}

func TestTrackerForget(t *testing.T) {
	tr := NewProductivityTracker(0.5)
	g := GroupStats{ID: 1, CumBytes: 100, Output: 0}
	tr.Observe([]GroupStats{g})
	if tr.Score(g) != 0 {
		t.Fatal("pre-forget score wrong")
	}
	tr.Forget(1)
	g2 := GroupStats{ID: 1, CumBytes: 100, Output: 100}
	if got := tr.Score(g2); got != 1 {
		t.Fatalf("post-forget Score = %v, want raw 1", got)
	}
}

func TestNewTrackerClampsAlpha(t *testing.T) {
	for _, alpha := range []float64{-1, 0, 2} {
		tr := NewProductivityTracker(alpha)
		if tr.alpha != 0.5 {
			t.Fatalf("alpha %v not clamped: %v", alpha, tr.alpha)
		}
	}
}

func TestSmoothedPolicyRanksByTrackerScores(t *testing.T) {
	tr := NewProductivityTracker(0.9)
	// Group 1: was hot, turned cold. Group 2: was cold, turned hot.
	g1 := GroupStats{ID: 1, Size: 100, CumBytes: 1000, Output: 10000}
	g2 := GroupStats{ID: 2, Size: 100, CumBytes: 1000, Output: 10}
	tr.Observe([]GroupStats{g1, g2})
	for i := 0; i < 5; i++ {
		g1.CumBytes += 1000 // cold: no new output
		g2.CumBytes += 1000
		g2.Output += 300 // hot now, though not yet on the lifetime ratio
		tr.Observe([]GroupStats{g1, g2})
	}
	// Lifetime metric still ranks g1 as more productive...
	if g1.Productivity() <= g2.Productivity() {
		t.Skip("workload arithmetic changed; lifetime no longer misleading")
	}
	// ...so the raw policy would spill g2 (currently hot).
	raw := LessProductivePolicy{}.SelectVictims([]GroupStats{g1, g2}, 50)
	if len(raw) != 1 || raw[0] != 2 {
		t.Fatalf("raw policy victims = %v, want currently-hot group 2 (misranked)", raw)
	}
	// The smoothed policy spills the cold group 1.
	smoothed := SmoothedLessProductive{T: tr}.SelectVictims([]GroupStats{g1, g2}, 50)
	if len(smoothed) != 1 || smoothed[0] != 1 {
		t.Fatalf("smoothed victims = %v, want cold group 1", smoothed)
	}
	// Movers mirror-image: smoothed movers pick the hot group first.
	movers := MostProductive([]GroupStats{g1, g2}, 50, tr.Score)
	if len(movers) != 1 || movers[0] != 2 {
		t.Fatalf("smoothed movers = %v, want hot group 2", movers)
	}
}

func TestSmoothedPolicyName(t *testing.T) {
	p := SmoothedLessProductive{T: NewProductivityTracker(0.5)}
	if p.Name() != "push-less-productive-ewma" {
		t.Fatalf("Name = %q", p.Name())
	}
}

var _ Policy = SmoothedLessProductive{}
