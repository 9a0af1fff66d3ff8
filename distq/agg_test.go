package distq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/partition"
)

func TestMin(t *testing.T) {
	op := NewAggregate(AggMin, 8)
	op.Process(1, 10)
	op.Process(1, 3)
	op.Process(1, 7)
	if v, ok := op.Value(1); !ok || v != 3 {
		t.Fatalf("min = %d, %v", v, ok)
	}
}

func TestMax(t *testing.T) {
	op := NewAggregate(AggMax, 8)
	op.Process(1, 10)
	op.Process(1, 30)
	op.Process(1, 7)
	if v, ok := op.Value(1); !ok || v != 30 {
		t.Fatalf("max = %d, %v", v, ok)
	}
}

func TestSum(t *testing.T) {
	op := NewAggregate(AggSum, 8)
	op.Process(1, 10)
	op.Process(1, -3)
	if v, ok := op.Value(1); !ok || v != 7 {
		t.Fatalf("sum = %d, %v", v, ok)
	}
}

func TestCount(t *testing.T) {
	op := NewAggregate(AggCount, 8)
	op.Process(1, 999)
	op.Process(1, -5)
	op.Process(1, 0)
	if v, ok := op.Value(1); !ok || v != 3 {
		t.Fatalf("count = %d, %v", v, ok)
	}
}

func TestValueMissingKey(t *testing.T) {
	op := NewAggregate(AggMin, 8)
	if _, ok := op.Value(42); ok {
		t.Fatal("missing key reported present")
	}
	op.Process(8, 1) // same partition as 0 (8 % 8 == 0)
	if _, ok := op.Value(0); ok {
		t.Fatal("sibling key reported present")
	}
}

func TestKeysSorted(t *testing.T) {
	op := NewAggregate(AggMin, 8)
	for _, k := range []uint64{9, 2, 17, 4} {
		op.Process(k, 1)
	}
	keys := op.Keys()
	want := []uint64{2, 4, 9, 17}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestMemAccountingAndStats(t *testing.T) {
	op := NewAggregate(AggMin, 8)
	op.Process(1, 5)
	op.Process(1, 4) // same cell
	op.Process(2, 5) // new cell
	if op.MemBytes() != 2*aggCellSize {
		t.Fatalf("MemBytes = %d", op.MemBytes())
	}
	stats := op.Stats()
	var total int64
	var updates uint64
	for _, s := range stats {
		total += s.Size
		updates += s.Output
	}
	if total != op.MemBytes() {
		t.Fatalf("stats sizes sum %d != MemBytes %d", total, op.MemBytes())
	}
	if updates != 3 {
		t.Fatalf("updates = %d", updates)
	}
}

func TestExtractMerge(t *testing.T) {
	op := NewAggregate(AggMin, 8)
	op.Process(1, 5)
	op.Process(9, 7) // partition 1 as well
	id := partition.NewFunc(8).Of(1)
	p := op.Extract(id)
	if p == nil || len(p.Cells) != 2 {
		t.Fatalf("partial = %+v", p)
	}
	if op.MemBytes() != 0 {
		t.Fatalf("MemBytes = %d after extract", op.MemBytes())
	}
	if _, ok := op.Value(1); ok {
		t.Fatal("extracted key still resident")
	}
	// New data for the same keys, then merge the partial back.
	op.Process(1, 9)
	if err := op.Merge(p); err != nil {
		t.Fatal(err)
	}
	if v, _ := op.Value(1); v != 5 {
		t.Fatalf("merged min = %d, want 5", v)
	}
	if v, _ := op.Value(9); v != 7 {
		t.Fatalf("merged min = %d, want 7", v)
	}
}

func TestExtractEmpty(t *testing.T) {
	op := NewAggregate(AggMin, 8)
	if p := op.Extract(3); p != nil {
		t.Fatal("extracted partial from empty group")
	}
}

func TestMergeKindMismatch(t *testing.T) {
	op := NewAggregate(AggMin, 8)
	if err := op.Merge(&AggPartial{Kind: AggMax}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestKindString(t *testing.T) {
	names := map[AggKind]string{AggMin: "min", AggMax: "max", AggSum: "sum", AggCount: "count", AggKind(9): "unknown"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// TestPartialDecompositionQuick checks the decomposability invariant:
// aggregating a stream directly equals extracting partials at arbitrary
// points and merging everything back, for every aggregate kind.
func TestPartialDecompositionQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, kind := range []AggKind{AggMin, AggMax, AggSum, AggCount} {
			direct := NewAggregate(kind, 8)
			split := NewAggregate(kind, 8)
			var partials []*AggPartial
			for i := 0; i < int(n)+10; i++ {
				key := uint64(rng.Intn(12))
				val := int64(rng.Intn(1000)) - 500
				direct.Process(key, val)
				split.Process(key, val)
				if rng.Intn(8) == 0 {
					if p := split.Extract(partition.ID(rng.Intn(8))); p != nil {
						partials = append(partials, p)
					}
				}
			}
			for _, p := range partials {
				if err := split.Merge(p); err != nil {
					return false
				}
			}
			for _, key := range direct.Keys() {
				dv, _ := direct.Value(key)
				sv, ok := split.Value(key)
				if !ok || dv != sv {
					return false
				}
			}
			if len(direct.Keys()) != len(split.Keys()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
