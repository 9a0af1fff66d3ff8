package join

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// TestKeyTableAdversarialKeys drives the key table through the cases an
// open-addressing table gets wrong first: the keys at both ends of the
// key space (no key value may double as the empty marker) and a long
// run of keys that all hash to one home slot, at every size the table
// passes through while they arrive.
func TestKeyTableAdversarialKeys(t *testing.T) {
	keys := []uint64{0, math.MaxUint64}
	// Keys whose hash shares its top 8 bits share their home slot in
	// every table of up to 256 slots.
	const home = 0xA7
	for k := uint64(1); len(keys) < 2+64; k++ {
		if k*hashMul>>56 == home {
			keys = append(keys, k)
		}
	}
	op := New(2, partition.NewFunc(1), nil)
	var history []tuple.Tuple
	feed := func(stream uint8, key uint64) {
		tp := tuple.Tuple{Stream: stream, Key: key, Seq: uint64(len(history))}
		history = append(history, tp)
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		feed(0, k)
		if i%3 == 0 {
			feed(0, k)
		}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		feed(1, keys[i])
	}
	if got, want := op.Output(), OracleCount(2, history); got != want {
		t.Fatalf("%d results, oracle %d", got, want)
	}
	snap := op.ResidentSnapshot(0)
	if snap.TupleCount() != len(history) {
		t.Fatalf("%d tuples resident, fed %d", snap.TupleCount(), len(history))
	}
	in1 := TuplesOf(snap)[1]
	for i := 1; i < len(in1); i++ {
		if in1[i-1].Key >= in1[i].Key {
			t.Fatalf("snapshot keys out of order at %d: %d then %d", i, in1[i-1].Key, in1[i].Key)
		}
	}
}

// TestKeyTableGrowsToAMillionKeys grows one group's table from empty
// through every doubling up to 2^21 slots.
func TestKeyTableGrowsToAMillionKeys(t *testing.T) {
	const n = 1 << 20
	op := New(2, partition.NewFunc(1), nil)
	history := make([]tuple.Tuple, 0, n+n/4)
	for i := 0; i < n; i++ {
		// Spread over the key space, distinct: an odd multiplier is a
		// bijection on uint64.
		history = append(history, tuple.Tuple{Stream: 0, Key: uint64(i) * 0xD6E8FEB86659FD93, Seq: uint64(i)})
	}
	for i := 0; i < n; i += 4 {
		history = append(history, tuple.Tuple{Stream: 1, Key: history[i].Key, Seq: uint64(i)})
	}
	for i := range history {
		if _, err := op.Process(history[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := op.Output(), OracleCount(2, history); got != want {
		t.Fatalf("%d results, oracle %d", got, want)
	}
	_, g := op.find(0)
	if entries := len(g.lists) / 2; entries != n {
		t.Fatalf("%d table entries for %d distinct keys", entries, n)
	}
}

// TestLargePayloadGetsItsOwnPage stores payloads around and beyond the
// page size next to small ones and reads them all back.
func TestLargePayloadGetsItsOwnPage(t *testing.T) {
	op := New(2, partition.NewFunc(1), nil)
	sizes := []int{1, pageBytes / 4, pageBytes/4 + 1, 40, pageBytes, 3*pageBytes + 7, 0, 40}
	for i, n := range sizes {
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		if _, err := op.Process(tuple.Tuple{Stream: 0, Key: 9, Seq: uint64(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
		for j := range payload {
			payload[j] = 0xFF // the operator must hold its own copy
		}
	}
	got := TuplesOf(op.ResidentSnapshot(0))[0]
	if len(got) != len(sizes) {
		t.Fatalf("%d tuples resident, stored %d", len(got), len(sizes))
	}
	for i, tp := range got {
		if len(tp.Payload) != sizes[i] {
			t.Fatalf("tuple %d: payload of %d bytes, stored %d", i, len(tp.Payload), sizes[i])
		}
		for j, b := range tp.Payload {
			if b != byte(i+j) {
				t.Fatalf("tuple %d: payload byte %d is %#x, stored %#x", i, j, b, byte(i+j))
			}
		}
	}
}

// pointerFree reports whether values of t contain no pointers the
// collector would have to trace.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// TestResidentRecordIsPointerFree pins the property the layout exists
// for: everything a group allocates per tuple or per key is allocated
// noscan, so the collector's mark work does not grow with the state.
func TestResidentRecordIsPointerFree(t *testing.T) {
	var g group
	for name, typ := range map[string]reflect.Type{
		"record":       reflect.TypeOf(g.recs.chunks).Elem().Elem(),
		"seq column":   reflect.TypeOf(g.seqs.chunks).Elem().Elem(),
		"log byte":     reflect.TypeOf(g.log).Elem().Elem(),
		"payload page": reflect.TypeOf(g.pages.chunks).Elem().Elem(),
		"list":         reflect.TypeOf(g.lists).Elem(),
		"table slot":   reflect.TypeOf(g.slots).Elem(),
	} {
		if !pointerFree(typ) {
			t.Errorf("%s type %v contains pointers", name, typ)
		}
	}
	// A probe reads a run's seqs from the column alone: a seq element is
	// 8 bytes, and the run record beside it does not hold the seq again.
	if size := reflect.TypeOf(g.seqs.chunks).Elem().Elem().Size(); size != 8 {
		t.Errorf("a seq column element takes %d bytes, want 8", size)
	}
	if size := reflect.TypeOf(rec{}).Size(); size > 24 {
		t.Errorf("a run record takes %d bytes, want at most 24", size)
	}
	if size := reflect.TypeOf(list{}).Size(); size > 16 {
		t.Errorf("a list header takes %d bytes, want at most 16", size)
	}
	if pointerFree(reflect.TypeOf(tuple.Tuple{})) {
		t.Error("pointerFree accepts tuple.Tuple, which holds a slice")
	}
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// residentBytesPerTuple stores 200 000 tuples with 40-byte payloads in
// a 3-way join and returns the live heap they hold per tuple.
func residentBytesPerTuple(t *testing.T, emit EmitFunc) float64 {
	const n = 200_000
	payload := make([]byte, 40)
	before := liveHeap()
	op := New(3, partition.NewFunc(16), emit)
	for i := 0; i < n; i++ {
		tp := tuple.Tuple{Stream: uint8(i % 3), Key: uint64(i / 3 % 2000), Seq: uint64(i), Payload: payload}
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	perTuple := float64(liveHeap()-before) / n
	runtime.KeepAlive(op)
	t.Logf("%.1f live heap bytes per stored tuple", perTuple)
	return perTuple
}

// TestResidentBytesPerTuple bounds what a stored tuple really costs in
// a count-only join: its 69-byte encoding (40 payload bytes behind a
// 29-byte header) in the group's log, and the slack of the log chunk
// still filling.
func TestResidentBytesPerTuple(t *testing.T) {
	if perTuple := residentBytesPerTuple(t, nil); perTuple > 80 {
		t.Fatalf("%.1f live heap bytes per stored tuple, want at most 80", perTuple)
	}
}

// TestResidentBytesPerTupleEmitting bounds the same for a materializing
// join, whose 24-byte records and 8-byte seqs sit in per-list runs that
// are still filling. A seq kept in the record as well as in the column
// costs more than the bound allows.
func TestResidentBytesPerTupleEmitting(t *testing.T) {
	if perTuple := residentBytesPerTuple(t, func(tuple.Result) {}); perTuple > 100 {
		t.Fatalf("%.1f live heap bytes per stored tuple, want at most 100", perTuple)
	}
}

// TestLogKeepsListOrder checks that a logged list's chain and its list
// order agree: a count-only group is snapshotted, has more tuples
// merged into the same lists (and new ones), and is snapshotted again.
// Each snapshot must hold every input's tuples by key and, within a key,
// in arrival order — the emitting operator's order for the same steps.
func TestLogKeepsListOrder(t *testing.T) {
	var seq uint64
	batch := func(n int) []tuple.Tuple {
		var in []tuple.Tuple
		for i := 0; i < n; i++ {
			seq++
			key := seq * 7 % 11
			in = append(in, tuple.Tuple{Stream: uint8(seq * 5 % 3), Key: key, Seq: seq, Payload: make([]byte, seq%5)})
		}
		return in
	}
	logged, runs := New(3, partition.NewFunc(1), nil), New(3, partition.NewFunc(1), func(tuple.Result) {})
	check := func(what string) {
		t.Helper()
		snap := logged.ResidentSnapshot(0)
		if !bytes.Equal(EncodeSnapshot(snap), EncodeSnapshot(runs.ResidentSnapshot(0))) {
			t.Fatalf("%s: logged and run snapshots differ", what)
		}
		for stream, l := range TuplesOf(snap) {
			for i := 1; i < len(l); i++ {
				if a, b := l[i-1], l[i]; a.Key > b.Key || a.Key == b.Key && a.Seq >= b.Seq {
					t.Fatalf("%s: input %d holds (key %d, seq %d) before (key %d, seq %d)", what, stream, a.Key, a.Seq, b.Key, b.Seq)
				}
			}
		}
	}
	for _, tp := range batch(200) {
		if _, err := logged.Process(tp); err != nil {
			t.Fatal(err)
		}
		if _, err := runs.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	check("after inserts")
	fresh := batch(150)
	for i := range fresh {
		fresh[i].Key += 5 // six keys already resident, five new
	}
	more := SnapshotOf(0, 0, 3, fresh...)
	for _, op := range []*Operator{logged, runs} {
		if err := op.Merge(more); err != nil {
			t.Fatal(err)
		}
	}
	check("after a merge into the resident group")
	if n := logged.ResidentSnapshot(0).TupleCount(); n != 350 {
		t.Fatalf("%d tuples resident, stored 350", n)
	}
}

// TestLogChunkBoundaries feeds a count-only operator and an emitting
// twin the same tuples through every way tuples reach a group — Process,
// Merge into the resident group, MergeRuns, ExtractForSpill, and
// RemoveForRelocation with a re-Merge — with payloads that fill a log
// chunk to one byte short of the next tuple, exactly fill a page, and
// overflow it. After every step the two snapshot to the same bytes. A
// snapshot taken before more tuples arrive must still read its original
// tuples, and the log chunks written before must still be where they
// were: a tuple in the log is never copied again.
func TestLogChunkBoundaries(t *testing.T) {
	const inputs, header = 3, 29
	// From a fresh chunk: 69 + 30 bytes, then a tuple that leaves 28,
	// one short of the next (payload-less) tuple.
	sizes := []int{40, 1, pageBytes - 2*header - 41 - 28 - header, 0, pageBytes, 3*pageBytes + 7}
	var seq uint64
	next := func(n int) []tuple.Tuple {
		in := make([]tuple.Tuple, n)
		for i := range in {
			seq++
			payload := make([]byte, sizes[seq%uint64(len(sizes))])
			for j := range payload {
				payload[j] = byte(seq*31 + uint64(j))
			}
			in[i] = tuple.Tuple{Stream: uint8(seq / 2 % inputs), Key: seq % 5, Seq: seq, Payload: payload}
		}
		return in
	}
	logged, runs := New(inputs, partition.NewFunc(1), nil), New(inputs, partition.NewFunc(1), func(tuple.Result) {})
	both := []*Operator{logged, runs}
	same := func(what string, a, b *GroupSnapshot) {
		t.Helper()
		if !bytes.Equal(EncodeSnapshot(a), EncodeSnapshot(b)) {
			t.Fatalf("%s: the logged and the run snapshot differ", what)
		}
	}
	check := func(what string) {
		t.Helper()
		same(what, logged.ResidentSnapshot(0), runs.ResidentSnapshot(0))
	}
	process := func(in []tuple.Tuple) {
		t.Helper()
		for _, tp := range in {
			for _, op := range both {
				if _, err := op.Process(tp); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	process(next(4 * len(sizes)))
	check("after inserts")
	early := logged.ResidentSnapshot(0)
	earlyBytes := EncodeSnapshot(early)
	var earlyLog []*byte
	for _, c := range logged.groups[0].log {
		earlyLog = append(earlyLog, &c[0])
	}

	process(next(2 * len(sizes)))
	check("after more inserts")
	if g := logged.groups[0]; len(g.log) < len(earlyLog) {
		t.Fatalf("the log has %d chunks, it had %d", len(g.log), len(earlyLog))
	} else {
		for k, at := range earlyLog {
			if &g.log[k][0] != at {
				t.Fatalf("log chunk %d moved", k)
			}
		}
	}

	merged := SnapshotOf(0, 0, inputs, next(len(sizes)+1)...)
	var run []byte
	for _, tp := range next(len(sizes) + 2) {
		run = tp.AppendTo(run)
	}
	for _, op := range both {
		if err := op.Merge(merged); err != nil {
			t.Fatal(err)
		}
	}
	check("after a merge into the resident group")
	for _, op := range both {
		if err := op.MergeRuns(0, run); err != nil {
			t.Fatal(err)
		}
	}
	check("after merged runs")

	same("spill extraction", logged.ExtractForSpill(0), runs.ExtractForSpill(0))
	process(next(len(sizes) + 3))
	check("after inserts into the next generation")

	moved := logged.RemoveForRelocation(0)
	same("relocation", moved, runs.RemoveForRelocation(0))
	for _, op := range both {
		if err := op.Merge(moved); err != nil {
			t.Fatal(err)
		}
	}
	process(next(len(sizes)))
	check("after a relocated group is merged back and fed")

	if !bytes.Equal(EncodeSnapshot(early), earlyBytes) {
		t.Fatal("a snapshot taken before later arrivals no longer reads its original tuples")
	}
}

// TestWindowedStateStaysBounded feeds a windowed operator a key space
// that keeps advancing, so every key's lists fill, expire and are never
// touched again. The table's entries, the records and the payload bytes
// of expired tuples must all be reclaimed: after the first window the
// entry count and the live heap stop growing.
func TestWindowedStateStaysBounded(t *testing.T) {
	const (
		window   = 100 * time.Millisecond
		perRound = 30_000 // tuples per window length
	)
	payload := make([]byte, 40)
	op := NewWindowed(3, partition.NewFunc(4), window, nil)
	entries := func() int {
		n := 0
		op.resident(func(g *group) { n += len(g.lists) / 3 })
		return n
	}
	i := 0
	round := func() {
		for end := i + perRound; i < end; i++ {
			ts := vclock.Time(time.Duration(i) * window / perRound)
			tp := tuple.Tuple{Stream: uint8(i % 3), Key: uint64(i / 6), Seq: uint64(i), Ts: ts, Payload: payload}
			if _, err := op.Process(tp); err != nil {
				t.Fatal(err)
			}
			if i%1000 == 999 {
				op.Purge(ts.Add(-window))
			}
		}
	}
	before := liveHeap()
	round()
	round()
	entriesEarly, heapEarly := entries(), liveHeap()-before
	for r := 0; r < 10; r++ {
		round()
	}
	entriesLate, heapLate := entries(), liveHeap()-before
	t.Logf("after 2 windows: %d entries, %d KiB; after 12: %d entries, %d KiB; %d tuples resident",
		entriesEarly, heapEarly>>10, entriesLate, heapLate>>10, op.MemBytes()/(&tuple.Tuple{Payload: payload}).MemSize())
	if entriesLate > 2*entriesEarly {
		t.Fatalf("table entries grew from %d to %d over a steady window", entriesEarly, entriesLate)
	}
	if heapLate > 2*heapEarly {
		t.Fatalf("live heap grew from %d to %d bytes over a steady window", heapEarly, heapLate)
	}
	runtime.KeepAlive(op)
}

// TestPurgeCompactsInPlace checks that a purge which drops tuples
// without tipping a group into a rebuild allocates nothing.
func TestPurgeCompactsInPlace(t *testing.T) {
	op := NewWindowed(2, partition.NewFunc(1), time.Hour, nil)
	for i := 0; i < 4000; i++ {
		tp := tuple.Tuple{Stream: uint8(i % 2), Key: uint64(i % 50), Seq: uint64(i), Ts: vclock.Time(i)}
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	cutoff, purged := vclock.Time(0), 0
	allocs := testing.AllocsPerRun(10, func() {
		cutoff += 100
		purged += op.Purge(cutoff)
	})
	if purged != 1100 { // AllocsPerRun runs the function once more to warm up
		t.Fatalf("purged %d tuples, want 1100", purged)
	}
	if allocs != 0 {
		t.Fatalf("a purge allocated %.1f times, want 0", allocs)
	}
}
