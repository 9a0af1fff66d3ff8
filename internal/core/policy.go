package core

import (
	"math/rand"
	"sort"

	"repro/internal/partition"
)

// Policy selects which partition groups an adaptation should move or spill.
// Given the engine's current per-group statistics and a target byte amount,
// it returns the chosen group IDs. Implementations must be deterministic
// given their inputs (RandomPolicy carries its own seeded source) so that
// experiments are repeatable.
type Policy interface {
	// SelectVictims picks groups totalling at least target bytes (or all
	// groups, if the total resident size is smaller). The engine spills
	// or relocates exactly the returned groups.
	SelectVictims(groups []GroupStats, target int64) []partition.ID
	// Name is a short label used in experiment reports.
	Name() string
}

// selectBy sorts a copy of groups by less and takes a prefix reaching the
// target. Groups of zero size are skipped: they hold no memory.
func selectBy(groups []GroupStats, target int64, less func(a, b GroupStats) bool) []partition.ID {
	sorted := make([]GroupStats, len(groups))
	copy(sorted, groups)
	sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	var (
		ids   []partition.ID
		total int64
	)
	for _, g := range sorted {
		if total >= target {
			break
		}
		if g.Size <= 0 {
			continue
		}
		ids = append(ids, g.ID)
		total += g.Size
	}
	return ids
}

// LeastProductive ranks groups by score, lowest first, breaking ties by
// freeing more memory, and takes a prefix reaching target. The score is
// GroupStats.Productivity (the lifetime P_output/P_size) or a
// ProductivityTracker's Score. As the movers a sender sheds to a freshly
// joined engine it moves the cheapest state first, so the rebalance
// disturbs the hot working set as little as possible while the joiner
// warms up.
func LeastProductive(groups []GroupStats, target int64, score func(GroupStats) float64) []partition.ID {
	return byScore(groups, target, score, false)
}

// MostProductive is LeastProductive with the highest score first; ties
// still free more memory first. As relocation movers it is
// computePartsToMove() of Algorithms 1 and 2: the paper's integrated
// strategies move the *productive* partitions (they stay active in the
// receiver's memory) while spilling the unproductive ones.
func MostProductive(groups []GroupStats, target int64, score func(GroupStats) float64) []partition.ID {
	return byScore(groups, target, score, true)
}

func byScore(groups []GroupStats, target int64, score func(GroupStats) float64, most bool) []partition.ID {
	return selectBy(groups, target, func(a, b GroupStats) bool {
		sa, sb := score(a), score(b)
		if sa == sb {
			return a.Size > b.Size
		}
		if most {
			return sa > sb
		}
		return sa < sb
	})
}

// LessProductivePolicy spills the partition groups with the smallest
// P_output/P_size first — the paper's throughput-oriented spill policy,
// which keeps the groups most likely to produce results in memory.
type LessProductivePolicy struct{}

// Name implements Policy.
func (LessProductivePolicy) Name() string { return "push-less-productive" }

// SelectVictims implements Policy.
func (LessProductivePolicy) SelectVictims(groups []GroupStats, target int64) []partition.ID {
	return LeastProductive(groups, target, GroupStats.Productivity)
}

// MoreProductivePolicy spills the most productive groups first — the
// adversarial baseline of Figure 7.
type MoreProductivePolicy struct{}

// Name implements Policy.
func (MoreProductivePolicy) Name() string { return "push-more-productive" }

// SelectVictims implements Policy.
func (MoreProductivePolicy) SelectVictims(groups []GroupStats, target int64) []partition.ID {
	return MostProductive(groups, target, GroupStats.Productivity)
}

// LargestPolicy spills the largest partition groups first, XJoin's flush
// policy, used as a baseline.
type LargestPolicy struct{}

// Name implements Policy.
func (LargestPolicy) Name() string { return "push-largest" }

// SelectVictims implements Policy.
func (LargestPolicy) SelectVictims(groups []GroupStats, target int64) []partition.ID {
	return selectBy(groups, target, func(a, b GroupStats) bool { return a.Size > b.Size })
}

// SmallestPolicy spills the smallest non-empty groups first; it needs the
// most spill invocations and serves as a lower-bound baseline.
type SmallestPolicy struct{}

// Name implements Policy.
func (SmallestPolicy) Name() string { return "push-smallest" }

// SelectVictims implements Policy.
func (SmallestPolicy) SelectVictims(groups []GroupStats, target int64) []partition.ID {
	return selectBy(groups, target, func(a, b GroupStats) bool { return a.Size < b.Size })
}

// RandomPolicy spills uniformly random groups, the selection used by the
// paper's k% sensitivity experiment (Figures 5 and 6) to isolate the
// effect of the spill volume from the choice of groups.
type RandomPolicy struct {
	rng *rand.Rand
}

// NewRandomPolicy returns a RandomPolicy with its own deterministic source.
func NewRandomPolicy(seed int64) *RandomPolicy {
	return &RandomPolicy{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (*RandomPolicy) Name() string { return "push-random" }

// SelectVictims implements Policy.
func (p *RandomPolicy) SelectVictims(groups []GroupStats, target int64) []partition.ID {
	perm := p.rng.Perm(len(groups))
	var (
		ids   []partition.ID
		total int64
	)
	for _, i := range perm {
		if total >= target {
			break
		}
		g := groups[i]
		if g.Size <= 0 {
			continue
		}
		ids = append(ids, g.ID)
		total += g.Size
	}
	return ids
}
