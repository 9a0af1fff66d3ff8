package cleanup

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/tuple"
)

// buildSpilledRun produces a store with at least minGroups multi-
// generation spilled groups plus an operator holding a final resident
// generation.
func buildSpilledRun(t *testing.T, inputs, minGroups int) (*join.Operator, spill.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var history []tuple.Tuple
	for i := 0; i < 1200; i++ {
		history = append(history, mkTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(32)), uint64(i)))
	}
	spillAt := map[int]bool{200: true, 500: true, 800: true, 1100: true}
	_, op, store := runWithSpills(t, inputs, 16, history, spillAt)
	if got := len(store.Groups()); got < minGroups {
		t.Fatalf("setup produced %d spilled groups, need >= %d", got, minGroups)
	}
	return op, store
}

// TestParallelStatsShape: Run's totals are those of the groups it merged
// (every spilled group, its segments, their tuples plus the resident
// generation, one result per emit call) and its Elapsed is positive.
func TestParallelStatsShape(t *testing.T) {
	const inputs = 2
	op, store := buildSpilledRun(t, inputs, 8)
	set := tuple.NewResultSet()
	stats, err := Run(inputs, store, op, 0, func(r tuple.Result) { set.Add(r) })
	if err != nil {
		t.Fatal(err)
	}
	if set.Duplicates() != 0 {
		t.Fatalf("cleanup emitted %d duplicate results", set.Duplicates())
	}
	var groups, segments, tuples int
	for _, id := range store.Groups() {
		segs, err := store.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		groups++
		segments += len(segs)
		for _, s := range segs {
			tuples += s.TupleCount()
		}
		if resident := op.ResidentSnapshot(id); resident != nil {
			tuples += resident.TupleCount()
		}
	}
	if stats.Groups != groups || stats.Segments != segments || stats.Tuples != tuples || stats.Results != uint64(set.Len()) {
		t.Fatalf("stats %+v, want %d groups, %d segments, %d tuples, %d results", stats, groups, segments, tuples, set.Len())
	}
	if stats.Results == 0 {
		t.Fatal("setup produced no cleanup results; test has no power")
	}
	if stats.Elapsed <= 0 {
		t.Fatalf("non-positive elapsed: %+v", stats)
	}
}

// TestParallelDeterministicError: every group is attempted and the
// reported error is that of the lowest-numbered failing group.
func TestParallelDeterministicError(t *testing.T) {
	store := spill.NewMemStore()
	for _, id := range []uint32{9, 3, 6} {
		// Arity 3 snapshots under an inputs=2 cleanup fail per group.
		snap := snapOf(partition.ID(id), 0, 3, mkTuple(0, 1, uint64(id)), mkTuple(1, 1, uint64(100+id)), mkTuple(2, 1, uint64(200+id)))
		if err := store.Write(snap); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := Run(2, store, nil, 0, nil)
	if err == nil {
		t.Fatal("arity mismatch not reported")
	}
	if !strings.Contains(err.Error(), "group 3") {
		t.Fatalf("error %q, want the lowest failing group (3)", err)
	}
	if stats.Segments != 3 || stats.Groups != 0 {
		t.Fatalf("stats %+v, want all 3 groups' segments read and none merged", stats)
	}
}
