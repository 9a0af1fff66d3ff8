package join

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

func wTuple(stream uint8, key, seq uint64, ts time.Duration) tuple.Tuple {
	return tuple.Tuple{Stream: stream, Key: key, Seq: seq, Ts: vclock.Time(ts), Payload: make([]byte, 8)}
}

func TestWindowedProbeRespectsWindow(t *testing.T) {
	op := NewWindowed(2, partition.NewFunc(4), time.Minute, nil)
	op.Process(wTuple(0, 1, 1, 0))
	// Within the window: matches.
	if n, _ := op.Process(wTuple(1, 1, 2, 30*time.Second)); n != 1 {
		t.Fatalf("in-window match produced %d", n)
	}
	// Outside the window of the first tuple, inside of the second.
	if n, _ := op.Process(wTuple(1, 1, 3, 70*time.Second)); n != 0 {
		t.Fatalf("out-of-window tuple produced %d", n)
	}
	if n, _ := op.Process(wTuple(0, 1, 4, 80*time.Second)); n != 2 {
		// seq 4 at 80s matches seq 2 (30s? no: 50s gap within 60s) and seq 3 (10s gap).
		t.Fatalf("tuple at 80s produced %d, want 2", n)
	}
	if op.Window() != time.Minute {
		t.Fatalf("Window = %v", op.Window())
	}
}

func TestUnboundedOperatorHasNoWindow(t *testing.T) {
	op := New(2, partition.NewFunc(4), nil)
	op.Process(wTuple(0, 1, 1, 0))
	if n, _ := op.Process(wTuple(1, 1, 2, time.Hour)); n != 1 {
		t.Fatalf("unbounded join missed a match: %d", n)
	}
}

func TestPurgeDropsExpiredState(t *testing.T) {
	op := NewWindowed(2, partition.NewFunc(2), time.Minute, nil)
	for i := 0; i < 10; i++ {
		op.Process(wTuple(uint8(i%2), uint64(i%3), uint64(i), time.Duration(i)*10*time.Second))
	}
	before := op.MemBytes()
	purged := op.Purge(vclock.Time(50 * time.Second))
	if purged != 5 {
		t.Fatalf("purged %d tuples, want 5 (ts 0..40s)", purged)
	}
	if op.MemBytes() >= before {
		t.Fatal("purge did not release memory")
	}
	// Purge is idempotent at the same cutoff.
	if again := op.Purge(vclock.Time(50 * time.Second)); again != 0 {
		t.Fatalf("second purge dropped %d", again)
	}
	// Accounting still consistent.
	var sum int64
	for _, g := range op.Stats() {
		sum += g.Size
	}
	if sum != op.MemBytes() {
		t.Fatalf("stats sum %d != MemBytes %d", sum, op.MemBytes())
	}
}

func TestPurgeDoesNotAffectFutureMatches(t *testing.T) {
	op := NewWindowed(2, partition.NewFunc(1), time.Minute, nil)
	op.Process(wTuple(0, 1, 1, 0))
	op.Purge(vclock.Time(2 * time.Minute)) // tuple 1 expires
	// A tuple at 3min could never have matched tuple 1 anyway.
	if n, _ := op.Process(wTuple(1, 1, 2, 3*time.Minute)); n != 0 {
		t.Fatalf("match with purged tuple: %d", n)
	}
}

func TestInsertOrderedHandlesDisorder(t *testing.T) {
	op := NewWindowed(2, partition.NewFunc(1), time.Minute, nil)
	op.Process(wTuple(0, 1, 1, 50*time.Second))
	op.Process(wTuple(0, 1, 2, 20*time.Second)) // late arrival
	op.Process(wTuple(0, 1, 3, 80*time.Second))
	// Probe at 81s with 60s window: matches ts 50s and 80s, not 20s.
	if n, _ := op.Process(wTuple(1, 1, 4, 81*time.Second)); n != 2 {
		t.Fatalf("probe matched %d, want 2", n)
	}
}

func TestWindowedOracleBasic(t *testing.T) {
	history := []tuple.Tuple{
		wTuple(0, 1, 1, 0),
		wTuple(1, 1, 2, 30*time.Second),
		wTuple(1, 1, 3, 90*time.Second),
	}
	set := WindowedOracle(2, history, time.Minute)
	if set.Len() != 1 {
		t.Fatalf("oracle found %d matches, want 1", set.Len())
	}
	if !set.Contains(tuple.Result{Key: 1, Seqs: []uint64{1, 2}}) {
		t.Fatal("wrong oracle match")
	}
}

func TestWindowedRuntimeMatchesOracleInOrder(t *testing.T) {
	const inputs = 3
	window := 45 * time.Second
	rng := rand.New(rand.NewSource(12))
	set := tuple.NewResultSet()
	op := NewWindowed(inputs, partition.NewFunc(8), window, func(r tuple.Result) { set.Add(r) })
	var history []tuple.Tuple
	for i := 0; i < 500; i++ {
		tp := wTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(20)), uint64(i), time.Duration(i)*time.Second)
		history = append(history, tp)
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	oracle := WindowedOracle(inputs, history, window)
	if set.Len() != oracle.Len() {
		t.Fatalf("runtime %d matches, oracle %d", set.Len(), oracle.Len())
	}
	if set.Duplicates() != 0 {
		t.Fatal("duplicates")
	}
}

func TestWindowedRuntimeWithPeriodicPurgeStillExact(t *testing.T) {
	const inputs = 2
	window := 30 * time.Second
	rng := rand.New(rand.NewSource(21))
	set := tuple.NewResultSet()
	op := NewWindowed(inputs, partition.NewFunc(4), window, func(r tuple.Result) { set.Add(r) })
	var history []tuple.Tuple
	for i := 0; i < 600; i++ {
		ts := time.Duration(i) * time.Second
		tp := wTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(10)), uint64(i), ts)
		history = append(history, tp)
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			op.Purge(vclock.Time(ts - vclock.Time(window).Sub(0)))
		}
	}
	oracle := WindowedOracle(inputs, history, window)
	if set.Len() != oracle.Len() {
		t.Fatalf("runtime %d matches with purging, oracle %d", set.Len(), oracle.Len())
	}
	// Memory stays bounded: only ~window worth of tuples resident.
	if op.MemBytes() > 80*64*2 {
		t.Fatalf("resident bytes %d not bounded by the window", op.MemBytes())
	}
}

func TestPurgeHoldsBackTuplesWithPendingDiskMatches(t *testing.T) {
	op := NewWindowed(2, partition.NewFunc(1), time.Minute, nil)
	// Tuple a at 0s, spilled; tuple b at 30s is within window of a, so
	// the pair (a,b) is owed to cleanup and b must survive purging even
	// after it expires.
	op.Process(wTuple(0, 1, 1, 0))
	snapA := op.ExtractForSpill(0)
	if snapA == nil {
		t.Fatal("no spill snapshot")
	}
	op.Process(wTuple(1, 1, 2, 30*time.Second))
	// At virtual time 10min both are long expired.
	if purged := op.Purge(vclock.Time(10 * time.Minute)); purged != 0 {
		t.Fatalf("purged %d tuples that owe cleanup matches", purged)
	}
	if op.MemBytes() == 0 {
		t.Fatal("held-back tuple vanished")
	}
	// A tuple beyond the watermark+window is purgeable.
	op.Process(wTuple(1, 1, 3, 5*time.Minute))
	if purged := op.Purge(vclock.Time(10 * time.Minute)); purged != 1 {
		t.Fatalf("purged %d, want exactly the safe tuple", purged)
	}
}

func TestSpilledWatermarkSurvivesRelocation(t *testing.T) {
	part := partition.NewFunc(1)
	src := NewWindowed(2, part, time.Minute, nil)
	src.Process(wTuple(0, 1, 1, 0))
	src.ExtractForSpill(0)
	src.Process(wTuple(1, 1, 2, 30*time.Second))

	snap := src.RemoveForRelocation(0)
	buf := EncodeSnapshot(snap)
	decoded, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.EverSpilled || decoded.SpilledTs != 0 {
		t.Fatalf("watermark lost in codec: %+v", decoded)
	}
	dst := NewWindowed(2, part, time.Minute, nil)
	if err := dst.Merge(decoded); err != nil {
		t.Fatal(err)
	}
	// The receiver must also hold back the pending tuple.
	if purged := dst.Purge(vclock.Time(10 * time.Minute)); purged != 0 {
		t.Fatalf("receiver purged %d held-back tuples", purged)
	}
}
