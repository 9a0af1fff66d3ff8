package cleanup

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

func wTuple(stream uint8, key, seq uint64, ts time.Duration) tuple.Tuple {
	return tuple.Tuple{Stream: stream, Key: key, Seq: seq, Ts: vclock.Time(ts), Payload: make([]byte, 8)}
}

// TestWindowedCleanupExactness is the windowed analogue of the central
// invariant: with a sliding window, spills at arbitrary points, and
// periodic purging, runtime + cleanup results equal the windowed oracle.
func TestWindowedCleanupExactness(t *testing.T) {
	const inputs = 3
	window := 40 * time.Second
	rng := rand.New(rand.NewSource(7))

	runtimeSet := tuple.NewResultSet()
	op := join.NewWindowed(inputs, partition.NewFunc(4), window, func(r tuple.Result) {
		if !runtimeSet.Add(r) {
			t.Fatal("duplicate runtime result")
		}
	})
	store := spill.NewMemStore()
	mgr := spill.NewManager(op, store, core.LessProductivePolicy{})

	var history []tuple.Tuple
	for i := 0; i < 500; i++ {
		ts := time.Duration(i) * time.Second
		tp := wTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(8)), uint64(i), ts)
		history = append(history, tp)
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
		switch {
		case i%120 == 60:
			if _, err := mgr.Spill(op.MemBytes() / 2); err != nil {
				t.Fatal(err)
			}
		case i%90 == 89:
			op.Purge(vclock.Time(ts) - vclock.Time(window))
		}
	}

	combined := tuple.NewResultSet()
	var dup bool
	stats, err := Run(inputs, store, op, window, func(r tuple.Result) {
		if runtimeSet.Contains(r) || !combined.Add(r) {
			dup = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatal("duplicate across phases")
	}
	oracle := join.WindowedOracle(inputs, history, window)
	total := runtimeSet.Len() + combined.Len()
	if total != oracle.Len() {
		t.Fatalf("runtime %d + cleanup %d = %d, windowed oracle %d",
			runtimeSet.Len(), combined.Len(), total, oracle.Len())
	}
	if stats.Results != uint64(combined.Len()) {
		t.Fatalf("stats.Results = %d, emitted %d", stats.Results, combined.Len())
	}
}

// TestWindowedCleanupCountOnlyMatchesEnumerated verifies the windowed
// count-only path (which must enumerate internally) agrees with
// materialization.
func TestWindowedCleanupCountOnlyMatchesEnumerated(t *testing.T) {
	const inputs = 2
	window := 25 * time.Second
	build := func() (*join.Operator, spill.Store) {
		op := join.NewWindowed(inputs, partition.NewFunc(2), window, nil)
		store := spill.NewMemStore()
		mgr := spill.NewManager(op, store, core.LargestPolicy{})
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			op.Process(wTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(5)), uint64(i), time.Duration(i)*time.Second))
			if i%80 == 40 {
				mgr.Spill(op.MemBytes())
			}
		}
		return op, store
	}
	op1, store1 := build()
	counted, err := Run(inputs, store1, op1, window, nil)
	if err != nil {
		t.Fatal(err)
	}
	op2, store2 := build()
	set := tuple.NewResultSet()
	if _, err := Run(inputs, store2, op2, window, func(r tuple.Result) { set.Add(r) }); err != nil {
		t.Fatal(err)
	}
	if counted.Results != uint64(set.Len()) {
		t.Fatalf("count-only %d vs materialized %d", counted.Results, set.Len())
	}
}

// TestWindowedGroupSpanFilter checks the span rule directly: a
// cross-generation pair just outside the window is dropped, just inside
// is kept.
func TestWindowedGroupSpanFilter(t *testing.T) {
	window := time.Minute
	gen0 := snapOf(0, 0, 2, wTuple(0, 1, 1, 0))
	gen1 := snapOf(0, 1, 2, wTuple(1, 1, 2, 59*time.Second), wTuple(1, 1, 3, 61*time.Second))
	res, err := Group(2, []*join.GroupSnapshot{gen0, gen1}, window, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != 1 {
		t.Fatalf("windowed cleanup produced %d results, want 1 (59s in, 61s out)", res.Results)
	}
	// Without a window both pairs appear.
	res, err = Group(2, []*join.GroupSnapshot{gen0, gen1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != 2 {
		t.Fatalf("unbounded cleanup produced %d results, want 2", res.Results)
	}
}

// TestWindowedCleanupCrossGenerationDisorder: generation 1 of a group
// holds a tuple stamped before a generation-0 tuple of the same key and
// input. Cleanup lands generations in arrival order, not timestamp
// order, so generation 0 stays the prefix of every list and run-time ∪
// cleanup equals the windowed oracle exactly.
func TestWindowedCleanupCrossGenerationDisorder(t *testing.T) {
	const inputs = 2
	window := 10 * time.Second
	got := tuple.NewResultSet()
	op := join.NewWindowed(inputs, partition.NewFunc(1), window, func(r tuple.Result) { got.Add(r) })
	store := spill.NewMemStore()
	mgr := spill.NewManager(op, store, core.LargestPolicy{})
	history := []tuple.Tuple{
		wTuple(0, 1, 0, 5*time.Second),
		wTuple(1, 1, 1, 6*time.Second),
		// Generation 1: seq 2 is stamped before seq 0, on its input and key.
		wTuple(0, 1, 2, 4*time.Second),
		wTuple(1, 1, 3, 7*time.Second),
	}
	for i, tp := range history {
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := mgr.Spill(op.MemBytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, err := Run(inputs, store, op, window, func(r tuple.Result) { got.Add(r) })
	if err != nil {
		t.Fatal(err)
	}
	want := join.WindowedOracle(inputs, history, window)
	if stats.Results != 2 || got.Duplicates() != 0 || got.Len() != want.Len() || len(want.Diff(got)) != 0 {
		t.Fatalf("cleanup %d results, run-time ∪ cleanup %d with %d duplicates, windowed oracle %d (missing %v)",
			stats.Results, got.Len(), got.Duplicates(), want.Len(), want.Diff(got))
	}
}
