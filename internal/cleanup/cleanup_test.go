package cleanup

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/tuple"
)

func mkTuple(stream uint8, key, seq uint64) tuple.Tuple {
	return tuple.Tuple{Stream: stream, Key: key, Seq: seq, Payload: make([]byte, 8)}
}

// runWithSpills drives tuples through a join operator, spilling everything
// at the given indices, and returns runtime results plus the store.
func runWithSpills(t *testing.T, inputs, parts int, history []tuple.Tuple, spillAt map[int]bool) (*tuple.ResultSet, *join.Operator, spill.Store) {
	t.Helper()
	runtimeSet := tuple.NewResultSet()
	op := join.New(inputs, partition.NewFunc(parts), func(r tuple.Result) {
		if !runtimeSet.Add(r) {
			t.Fatal("duplicate runtime result")
		}
	})
	store := spill.NewMemStore()
	mgr := spill.NewManager(op, store, core.LessProductivePolicy{})
	for i, tp := range history {
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
		if spillAt[i] {
			if _, err := mgr.Spill(op.MemBytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return runtimeSet, op, store
}

func checkExactness(t *testing.T, inputs int, history []tuple.Tuple, runtime *tuple.ResultSet, op *join.Operator, store spill.Store) {
	t.Helper()
	combined := tuple.NewResultSet()
	var dup bool
	emit := func(r tuple.Result) {
		if runtime.Contains(r) || !combined.Add(r) {
			dup = true
		}
	}
	stats, err := Run(inputs, store, op, 0, emit)
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatal("cleanup produced a duplicate result")
	}
	oracle := join.Oracle(inputs, history)
	total := runtime.Len() + combined.Len()
	if total != oracle.Len() {
		t.Fatalf("runtime %d + cleanup %d = %d results, oracle %d",
			runtime.Len(), combined.Len(), total, oracle.Len())
	}
	if stats.Results != uint64(combined.Len()) {
		t.Fatalf("stats.Results = %d, emitted %d", stats.Results, combined.Len())
	}
}

func TestCleanupSingleSpillExact(t *testing.T) {
	const inputs = 2
	var history []tuple.Tuple
	for i := 0; i < 20; i++ {
		history = append(history, mkTuple(uint8(i%2), uint64(i%3), uint64(i)))
	}
	runtime, op, store := runWithSpills(t, inputs, 1, history, map[int]bool{9: true})
	checkExactness(t, inputs, history, runtime, op, store)
}

func TestCleanupMultipleSpillsThreeWay(t *testing.T) {
	const inputs = 3
	rng := rand.New(rand.NewSource(3))
	var history []tuple.Tuple
	for i := 0; i < 300; i++ {
		history = append(history, mkTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(12)), uint64(i)))
	}
	spillAt := map[int]bool{50: true, 120: true, 121: true, 250: true}
	runtime, op, store := runWithSpills(t, inputs, 4, history, spillAt)
	checkExactness(t, inputs, history, runtime, op, store)
}

func TestCleanupCountOnlyMatchesMaterialized(t *testing.T) {
	const inputs = 3
	rng := rand.New(rand.NewSource(17))
	var history []tuple.Tuple
	for i := 0; i < 400; i++ {
		history = append(history, mkTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(10)), uint64(i)))
	}
	spillAt := map[int]bool{99: true, 200: true, 321: true}
	_, op1, store1 := runWithSpills(t, inputs, 4, history, spillAt)
	counted, err := Run(inputs, store1, op1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, op2, store2 := runWithSpills(t, inputs, 4, history, spillAt)
	set := tuple.NewResultSet()
	materialized, err := Run(inputs, store2, op2, 0, func(r tuple.Result) { set.Add(r) })
	if err != nil {
		t.Fatal(err)
	}
	if counted.Results != materialized.Results || counted.Results != uint64(set.Len()) {
		t.Fatalf("count-only %d vs materialized %d (set %d)", counted.Results, materialized.Results, set.Len())
	}
	if set.Duplicates() != 0 {
		t.Fatalf("%d duplicates in materialized cleanup", set.Duplicates())
	}
}

func TestCleanupExactnessQuick(t *testing.T) {
	// Property: for random histories and random spill schedules,
	// runtime + cleanup = oracle with no duplicates.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		inputs := 2 + rng.Intn(2)
		n := 50 + rng.Intn(150)
		keys := 3 + rng.Intn(10)
		var history []tuple.Tuple
		for i := 0; i < n; i++ {
			history = append(history, mkTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(keys)), uint64(i)))
		}
		spillAt := make(map[int]bool)
		for s := 0; s < rng.Intn(6); s++ {
			spillAt[rng.Intn(n)] = true
		}
		runtime, op, store := runWithSpills(t, inputs, 1+rng.Intn(5), history, spillAt)
		checkExactness(t, inputs, history, runtime, op, store)
	}
}

func TestCleanupNoSpillsNothingToDo(t *testing.T) {
	const inputs = 2
	var history []tuple.Tuple
	for i := 0; i < 10; i++ {
		history = append(history, mkTuple(uint8(i%2), 1, uint64(i)))
	}
	runtime, op, store := runWithSpills(t, inputs, 1, history, nil)
	stats, err := Run(inputs, store, op, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != 0 || stats.Groups != 0 {
		t.Fatalf("cleanup with empty store produced %+v", stats)
	}
	if runtime.Len() != join.Oracle(inputs, history).Len() {
		t.Fatal("runtime incomplete without spills")
	}
}

// snapOf returns generation gen of group id over inputs inputs, holding
// tuples, each in the input its Stream names.
func snapOf(id partition.ID, gen uint32, inputs int, tuples ...tuple.Tuple) *join.GroupSnapshot {
	var run []byte
	for i := range tuples {
		run = tuples[i].AppendTo(run)
	}
	s := &join.GroupSnapshot{ID: id, Gen: gen, Inputs: make([][]byte, inputs)}
	if err := s.Append(run); err != nil {
		panic(err)
	}
	return s
}

func TestGroupValidation(t *testing.T) {
	g0 := snapOf(1, 0, 2)
	g1 := snapOf(1, 0, 2)
	if _, err := Group(2, []*join.GroupSnapshot{g0, g1}, 0, nil); err == nil {
		t.Fatal("out-of-order generations accepted")
	}
	other := snapOf(2, 1, 2)
	if _, err := Group(2, []*join.GroupSnapshot{g0, other}, 0, nil); err == nil {
		t.Fatal("mixed group IDs accepted")
	}
	bad := snapOf(1, 0, 3)
	if _, err := Group(2, []*join.GroupSnapshot{bad}, 0, nil); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if res, err := Group(2, nil, 0, nil); err != nil || res.Results != 0 {
		t.Fatalf("empty generation list: %v, %+v", err, res)
	}
}

func TestGroupCrossGenerationOnly(t *testing.T) {
	// Gen 0: a0, b0 (match produced at runtime). Gen 1: a1, b1 (match
	// produced at runtime). Cleanup must produce exactly the two
	// cross-generation matches a0-b1 and a1-b0.
	gen0 := snapOf(0, 0, 2, mkTuple(0, 1, 100), mkTuple(1, 1, 200))
	gen1 := snapOf(0, 1, 2, mkTuple(0, 1, 101), mkTuple(1, 1, 201))
	set := tuple.NewResultSet()
	res, err := Group(2, []*join.GroupSnapshot{gen0, gen1}, 0, func(r tuple.Result) { set.Add(r) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != 2 || set.Len() != 2 {
		t.Fatalf("cleanup produced %d results, want 2", res.Results)
	}
	if !set.Contains(tuple.Result{Key: 1, Seqs: []uint64{100, 201}}) ||
		!set.Contains(tuple.Result{Key: 1, Seqs: []uint64{101, 200}}) {
		t.Fatal("wrong cross-generation matches")
	}
}

func TestGroupThreeGenerations(t *testing.T) {
	// One tuple per stream per generation, all same key, 2-way join,
	// 3 generations: total matches 3x3=9, in-generation 3, missed 6.
	var gens []*join.GroupSnapshot
	for g := uint32(0); g < 3; g++ {
		gens = append(gens, snapOf(0, g, 2, mkTuple(0, 5, uint64(100+g)), mkTuple(1, 5, uint64(200+g))))
	}
	res, err := Group(2, gens, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != 6 {
		t.Fatalf("missed results = %d, want 6", res.Results)
	}
}
