package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/partition"
)

func sampleGroups() []GroupStats {
	return []GroupStats{
		{ID: 0, Size: 100, Output: 10},  // productivity 0.1
		{ID: 1, Size: 100, Output: 400}, // productivity 4
		{ID: 2, Size: 200, Output: 100}, // productivity 0.5
		{ID: 3, Size: 50, Output: 100},  // productivity 2
		{ID: 4, Size: 0, Output: 0},     // empty, never a victim
	}
}

func totalSize(groups []GroupStats, ids []partition.ID) int64 {
	byID := make(map[partition.ID]int64)
	for _, g := range groups {
		byID[g.ID] = g.Size
	}
	var sum int64
	for _, id := range ids {
		sum += byID[id]
	}
	return sum
}

func TestLessProductiveOrder(t *testing.T) {
	ids := LessProductivePolicy{}.SelectVictims(sampleGroups(), 150)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("victims = %v, want [0 2]", ids)
	}
}

func TestMoreProductiveOrder(t *testing.T) {
	ids := MoreProductivePolicy{}.SelectVictims(sampleGroups(), 120)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("victims = %v, want [1 3]", ids)
	}
}

func TestLargestOrder(t *testing.T) {
	ids := LargestPolicy{}.SelectVictims(sampleGroups(), 250)
	if len(ids) != 2 || ids[0] != 2 {
		t.Fatalf("victims = %v, want 200-byte group first", ids)
	}
}

func TestSmallestOrder(t *testing.T) {
	ids := SmallestPolicy{}.SelectVictims(sampleGroups(), 60)
	if len(ids) != 2 || ids[0] != 3 {
		t.Fatalf("victims = %v, want 50-byte group first", ids)
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	a := NewRandomPolicy(1).SelectVictims(sampleGroups(), 200)
	b := NewRandomPolicy(1).SelectVictims(sampleGroups(), 200)
	if len(a) != len(b) {
		t.Fatalf("different lengths for same seed: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("different victims for same seed: %v vs %v", a, b)
		}
	}
}

func TestPoliciesSkipEmptyGroups(t *testing.T) {
	policies := []Policy{
		LessProductivePolicy{}, MoreProductivePolicy{},
		LargestPolicy{}, SmallestPolicy{}, NewRandomPolicy(3),
	}
	for _, p := range policies {
		for _, id := range p.SelectVictims(sampleGroups(), 1<<30) {
			if id == 4 {
				t.Errorf("%s selected empty group", p.Name())
			}
		}
	}
}

func TestPoliciesReachTargetQuick(t *testing.T) {
	// Property: for any group set and target, every policy selects
	// victims summing to >= min(target, total resident), and never
	// selects a group twice.
	f := func(sizes []uint16, outputs []uint16, targetRaw uint32) bool {
		n := len(sizes)
		if len(outputs) < n {
			n = len(outputs)
		}
		groups := make([]GroupStats, n)
		var total int64
		for i := 0; i < n; i++ {
			groups[i] = GroupStats{
				ID:     partition.ID(i),
				Size:   int64(sizes[i]),
				Output: uint64(outputs[i]),
			}
			total += int64(sizes[i])
		}
		target := int64(targetRaw % 1_000_000)
		want := target
		if total < want {
			want = total
		}
		policies := []Policy{
			LessProductivePolicy{}, MoreProductivePolicy{},
			LargestPolicy{}, SmallestPolicy{}, NewRandomPolicy(7),
		}
		for _, p := range policies {
			ids := p.SelectVictims(groups, target)
			seen := make(map[partition.ID]bool)
			for _, id := range ids {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
			if totalSize(groups, ids) < want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLessProductiveIsMinimalPrefix(t *testing.T) {
	// Property: every selected victim has productivity <= every
	// unselected non-empty group (modulo equal-productivity ties).
	groups := sampleGroups()
	ids := LessProductivePolicy{}.SelectVictims(groups, 150)
	selected := make(map[partition.ID]bool)
	for _, id := range ids {
		selected[id] = true
	}
	var maxSel, minUnsel float64 = -1, 1e18
	for _, g := range groups {
		if g.Size == 0 {
			continue
		}
		p := g.Productivity()
		if selected[g.ID] && p > maxSel {
			maxSel = p
		}
		if !selected[g.ID] && p < minUnsel {
			minUnsel = p
		}
	}
	if maxSel > minUnsel {
		t.Fatalf("selected max productivity %v > unselected min %v", maxSel, minUnsel)
	}
}

func TestMostProductiveMovers(t *testing.T) {
	ids := MostProductive(sampleGroups(), 100, GroupStats.Productivity)
	if len(ids) == 0 || ids[0] != 1 {
		t.Fatalf("movers = %v, want most productive group 1 first", ids)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"push-less-productive": LessProductivePolicy{},
		"push-more-productive": MoreProductivePolicy{},
		"push-largest":         LargestPolicy{},
		"push-smallest":        SmallestPolicy{},
		"push-random":          NewRandomPolicy(0),
	}
	for want, p := range names {
		if got := p.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
