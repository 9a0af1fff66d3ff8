package join

import (
	"math/rand"
	"testing"

	"repro/internal/partition"
	"repro/internal/tuple"
)

func mkTuple(stream uint8, key, seq uint64) tuple.Tuple {
	return tuple.Tuple{Stream: stream, Key: key, Seq: seq, Payload: make([]byte, 8)}
}

func TestTwoWayMatch(t *testing.T) {
	op := New(2, partition.NewFunc(8), nil)
	n, err := op.Process(mkTuple(0, 5, 1))
	if err != nil || n != 0 {
		t.Fatalf("first tuple produced %d results, err %v", n, err)
	}
	n, err = op.Process(mkTuple(1, 5, 1))
	if err != nil || n != 1 {
		t.Fatalf("matching tuple produced %d results, err %v", n, err)
	}
	n, _ = op.Process(mkTuple(1, 6, 2))
	if n != 0 {
		t.Fatalf("non-matching key produced %d results", n)
	}
}

func TestThreeWayNeedsAllInputs(t *testing.T) {
	op := New(3, partition.NewFunc(8), nil)
	op.Process(mkTuple(0, 7, 1))
	if n, _ := op.Process(mkTuple(1, 7, 1)); n != 0 {
		t.Fatalf("two-input match in three-way join produced %d", n)
	}
	if n, _ := op.Process(mkTuple(2, 7, 1)); n != 1 {
		t.Fatalf("full match produced %d, want 1", n)
	}
}

func TestMultiplicativeOutput(t *testing.T) {
	// 5 tuples of the same key per stream in a 3-way join -> 125 results,
	// the paper's join multiplicative factor arithmetic.
	op := New(3, partition.NewFunc(8), nil)
	var seq uint64
	for round := 0; round < 5; round++ {
		for s := uint8(0); s < 3; s++ {
			seq++
			op.Process(mkTuple(s, 1, seq))
		}
	}
	if op.Output() != 125 {
		t.Fatalf("output = %d, want 5^3 = 125", op.Output())
	}
}

func TestEmitMaterializesExactMatches(t *testing.T) {
	set := tuple.NewResultSet()
	op := New(2, partition.NewFunc(4), func(r tuple.Result) { set.Add(r) })
	op.Process(mkTuple(0, 3, 10))
	op.Process(mkTuple(0, 3, 11))
	op.Process(mkTuple(1, 3, 20))
	if set.Len() != 2 {
		t.Fatalf("emitted %d results, want 2", set.Len())
	}
	if !set.Contains(tuple.Result{Key: 3, Seqs: []uint64{10, 20}}) ||
		!set.Contains(tuple.Result{Key: 3, Seqs: []uint64{11, 20}}) {
		t.Fatal("emitted results do not match expected identities")
	}
	if set.Duplicates() != 0 {
		t.Fatalf("%d duplicates emitted", set.Duplicates())
	}
}

func TestProcessRejectsBadStream(t *testing.T) {
	op := New(2, partition.NewFunc(4), nil)
	if _, err := op.Process(mkTuple(2, 1, 1)); err == nil {
		t.Fatal("tuple for stream 2 accepted by 2-way join")
	}
}

func TestNewPanicsOnSingleInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1) did not panic")
		}
	}()
	New(1, partition.NewFunc(4), nil)
}

func TestMemAccounting(t *testing.T) {
	op := New(2, partition.NewFunc(4), nil)
	tp := mkTuple(0, 1, 1)
	op.Process(tp)
	if op.MemBytes() != tp.MemSize() {
		t.Fatalf("MemBytes = %d, want %d", op.MemBytes(), tp.MemSize())
	}
	op.Process(mkTuple(1, 2, 2))
	want := 2 * tp.MemSize()
	if op.MemBytes() != want {
		t.Fatalf("MemBytes = %d, want %d", op.MemBytes(), want)
	}
	// Accounting must equal the sum over group stats.
	var sum int64
	for _, g := range op.Stats() {
		sum += g.Size
	}
	if sum != op.MemBytes() {
		t.Fatalf("group sizes sum %d != MemBytes %d", sum, op.MemBytes())
	}
}

func TestExtractForSpillAdvancesGeneration(t *testing.T) {
	op := New(2, partition.NewFunc(1), nil) // single partition
	op.Process(mkTuple(0, 1, 1))
	op.Process(mkTuple(1, 1, 2)) // 1 result
	snap := op.ExtractForSpill(0)
	if snap == nil {
		t.Fatal("no snapshot extracted")
	}
	if snap.Gen != 0 {
		t.Fatalf("snapshot generation = %d, want 0", snap.Gen)
	}
	if snap.TupleCount() != 2 {
		t.Fatalf("snapshot holds %d tuples, want 2", snap.TupleCount())
	}
	if op.MemBytes() != 0 {
		t.Fatalf("MemBytes = %d after full spill", op.MemBytes())
	}
	// New tuples form a new generation and do NOT join spilled ones.
	if n, _ := op.Process(mkTuple(0, 1, 3)); n != 0 {
		t.Fatalf("post-spill tuple joined spilled state: %d results", n)
	}
	snap2 := op.ExtractForSpill(0)
	if snap2.Gen != 1 {
		t.Fatalf("second snapshot generation = %d, want 1", snap2.Gen)
	}
}

func TestExtractForSpillKeepsOutputCounter(t *testing.T) {
	op := New(2, partition.NewFunc(1), nil)
	op.Process(mkTuple(0, 1, 1))
	op.Process(mkTuple(1, 1, 2))
	op.ExtractForSpill(0)
	stats := op.Stats()
	if len(stats) != 1 || stats[0].Output != 1 {
		t.Fatalf("stats after spill = %+v, want output 1 retained", stats)
	}
}

func TestExtractForSpillEmptyGroup(t *testing.T) {
	op := New(2, partition.NewFunc(4), nil)
	if snap := op.ExtractForSpill(0); snap != nil {
		t.Fatal("extracted snapshot from absent group")
	}
	op.Process(mkTuple(0, 0, 1))
	op.ExtractForSpill(0)
	if snap := op.ExtractForSpill(0); snap != nil {
		t.Fatal("extracted snapshot from empty generation")
	}
}

func TestRelocationRoundTrip(t *testing.T) {
	part := partition.NewFunc(1)
	src := New(2, part, nil)
	src.Process(mkTuple(0, 1, 1))
	src.Process(mkTuple(1, 1, 2))

	snap := src.RemoveForRelocation(0)
	if snap == nil {
		t.Fatal("no snapshot removed")
	}
	if src.Groups() != 0 || src.MemBytes() != 0 {
		t.Fatalf("source still holds state: %d groups, %d bytes", src.Groups(), src.MemBytes())
	}

	dst := New(2, part, nil)
	if err := dst.Merge(snap); err != nil {
		t.Fatal(err)
	}
	if dst.MemBytes() != snap.MemBytes() {
		t.Fatalf("dst MemBytes = %d, want %d", dst.MemBytes(), snap.MemBytes())
	}
	// A new arrival at the receiver joins the transferred state.
	if n, _ := dst.Process(mkTuple(0, 1, 3)); n != 1 {
		t.Fatalf("post-relocation tuple produced %d results, want 1", n)
	}
	// Lifetime output travelled with the group: 1 result pre-move plus
	// 1 result post-move.
	stats := dst.Stats()
	if stats[0].Output != 2 {
		t.Fatalf("output counter after relocation = %d, want 2", stats[0].Output)
	}
}

func TestMergeRejectsWrongArity(t *testing.T) {
	op := New(3, partition.NewFunc(1), nil)
	snap := &GroupSnapshot{ID: 0, Inputs: make([][]byte, 2)}
	if err := op.Merge(snap); err == nil {
		t.Fatal("Merge with wrong input arity accepted")
	}
}

func TestResidentSnapshotDoesNotMutate(t *testing.T) {
	op := New(2, partition.NewFunc(1), nil)
	op.Process(mkTuple(0, 1, 1))
	before := op.MemBytes()
	snap := op.ResidentSnapshot(0)
	if snap == nil || snap.TupleCount() != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if op.MemBytes() != before || op.Groups() != 1 {
		t.Fatal("ResidentSnapshot mutated the operator")
	}
	if op.ResidentSnapshot(99) != nil {
		t.Fatal("snapshot of absent group")
	}
}

func TestResidentIDsSorted(t *testing.T) {
	op := New(2, partition.NewFunc(16), nil)
	for _, k := range []uint64{9, 3, 12} {
		op.Process(mkTuple(0, k, k))
	}
	ids := op.ResidentIDs()
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 9 || ids[2] != 12 {
		t.Fatalf("ResidentIDs = %v", ids)
	}
}

func TestRuntimeMatchesOracleWithoutAdaptation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const inputs = 3
	set := tuple.NewResultSet()
	op := New(inputs, partition.NewFunc(16), func(r tuple.Result) { set.Add(r) })
	var history []tuple.Tuple
	for i := 0; i < 600; i++ {
		tp := mkTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(40)), uint64(i))
		history = append(history, tp)
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	oracle := Oracle(inputs, history)
	if set.Len() != oracle.Len() {
		t.Fatalf("runtime produced %d results, oracle %d; missing %v",
			set.Len(), oracle.Len(), oracle.Diff(set)[:min(5, len(oracle.Diff(set)))])
	}
	if set.Duplicates() != 0 {
		t.Fatalf("%d duplicate results", set.Duplicates())
	}
	if op.Output() != uint64(oracle.Len()) {
		t.Fatalf("counted output %d != oracle %d", op.Output(), oracle.Len())
	}
}

func TestOracleCountMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const inputs = 3
	var history []tuple.Tuple
	for i := 0; i < 500; i++ {
		history = append(history, mkTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(25)), uint64(i)))
	}
	if got, want := OracleCount(inputs, history), uint64(Oracle(inputs, history).Len()); got != want {
		t.Fatalf("OracleCount = %d, Oracle.Len = %d", got, want)
	}
}
