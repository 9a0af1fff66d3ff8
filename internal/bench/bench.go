// Package bench defines the hot-path micro-benchmark bodies shared by
// the `go test -bench` wrappers (micro_bench_test.go) and the benchmark
// regression gate (cmd/benchgate). Keeping one body per benchmark means
// the gate measures exactly the code the test benchmarks report on.
//
// Measurements use fixed iteration counts rather than the testing
// package's adaptive loop: the join benchmarks grow operator state, so
// their per-op cost is superlinear in the iteration count and two runs
// are only comparable at the same N.
package bench

import (
	"fmt"
	"runtime"

	"repro/internal/cleanup"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/spill"
	"repro/internal/split"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// Payload is shared by every bench tuple so the harness itself
// allocates nothing per operation. Stored tuples never mutate payloads.
var Payload = make([]byte, 40)

// Tuple builds the i-th deterministic bench tuple (3 streams, 1000
// keys, timestamp = index).
func Tuple(i int) tuple.Tuple {
	return tuple.Tuple{
		Stream:  uint8(i % 3),
		Key:     uint64(i % 1000),
		Seq:     uint64(i),
		Ts:      vclock.Time(i),
		Payload: Payload,
	}
}

// check panics on err: a bench body runs on inputs it built itself, so
// an error is a bug in the body.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// must is check for a call that also returns a value.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// fill processes bench tuples from..to-1 into op and returns it.
func fill(op *join.Operator, from, to int) *join.Operator {
	for i := from; i < to; i++ {
		must(op.Process(Tuple(i)))
	}
	return op
}

// BuildSnapshot makes a realistic ~1000-tuple group snapshot.
func BuildSnapshot() *join.GroupSnapshot {
	return fill(join.New(3, partition.NewFunc(1), nil), 0, 1000).ResidentSnapshot(0)
}

// cleanupGens builds the three-generation merge input of the cleanup
// merge benchmark: 300 tuples per generation over 30 keys, 3 streams.
func cleanupGens() []*join.GroupSnapshot {
	mkGen := func(gen uint32) *join.GroupSnapshot {
		var run []byte
		for i := 0; i < 300; i++ {
			t := Tuple(i)
			t.Key = uint64(i % 30)
			t.Seq = uint64(gen)*1000 + uint64(i)
			run = t.AppendTo(run)
		}
		s := &join.GroupSnapshot{ID: 0, Gen: gen, Inputs: make([][]byte, 3)}
		check(s.Append(run))
		return s
	}
	return []*join.GroupSnapshot{mkGen(0), mkGen(1), mkGen(2)}
}

// Case is one gated micro-benchmark: Make returns a fresh-state
// per-iteration op. DefaultN is the fixed iteration count the gate
// runs (and the count baseline numbers were captured at). GateLive
// additionally gates Metric.LiveBytesPerOp, for a case whose point is
// the memory its state holds rather than what it allocates on the way.
type Case struct {
	Name     string
	DefaultN int
	Make     func() func(i int)
	GateLive bool
}

// copySink drops every message; like TCP it is a transport.PayloadCopier.
type copySink struct{}

func (copySink) Node() partition.NodeID                     { return "gen" }
func (copySink) Send(partition.NodeID, proto.Message) error { return nil }
func (copySink) Close() error                               { return nil }
func (copySink) CopiesPayload()                             {}

// batch256 is one full split-router batch of bench tuples.
func batch256() *tuple.Batch {
	var batch tuple.Batch
	for i := 0; i < 256; i++ {
		batch.Tuples = append(batch.Tuples, Tuple(i))
	}
	return &batch
}

// processCountOnly is the count-only join over the shared bench tuples.
func processCountOnly() func(int) {
	op := join.New(3, partition.NewFunc(120), nil)
	return func(i int) {
		must(op.Process(Tuple(i)))
	}
}

// snapshotTuples is how many tuples the state of join_snapshot_count_only,
// spill_read_back and relocation_image holds, and so how many ops one
// pass over that state covers.
const snapshotTuples = 300_000

// perPass runs pass at the first op of every snapshotTuples.
func perPass(pass func()) func(int) {
	return func(i int) {
		if i%snapshotTuples == 0 {
			pass()
		}
	}
}

// Cases lists the gated micro-benchmarks in stable output order.
func Cases() []Case {
	return []Case{
		{Name: "join_process_count_only", DefaultN: 300_000, Make: processCountOnly},
		{
			// What a stored tuple costs in live heap: a 40-byte payload,
			// its record, and the slack of lists and pages still filling.
			// The figure is a count, not a time: it repeats exactly.
			Name:     "join_resident_bytes_per_tuple",
			DefaultN: 300_000,
			Make:     processCountOnly,
			GateLive: true,
		},
		{
			// What a spill, a relocation or cleanup pays to read a
			// count-only group back: an op is one stored tuple, and
			// every snapshotTuples-th op snapshots every group of an
			// operator holding that many.
			Name:     "join_snapshot_count_only",
			DefaultN: snapshotTuples,
			Make: func() func(int) {
				op := fill(join.New(3, partition.NewFunc(120), nil), 0, snapshotTuples)
				ids := op.ResidentIDs()
				return perPass(func() {
					for _, id := range ids {
						op.ResidentSnapshot(id)
					}
				})
			},
		},
		{
			// A spill and its read-back through the in-memory store: a
			// count-only group of snapshotTuples tuples is extracted,
			// written and read back. An op is one tuple of the group; the
			// pass at op 0 makes a constant number of allocations, however
			// many tuples the group holds.
			Name:     "spill_read_back",
			DefaultN: snapshotTuples,
			Make: func() func(int) {
				op, store := fill(join.New(3, partition.NewFunc(1), nil), 0, snapshotTuples), spill.NewMemStore()
				return perPass(func() {
					if snap := op.ExtractForSpill(0); snap != nil { // nil: spilled by an earlier pass
						check(store.Write(snap))
						must(store.Read(0))
					}
				})
			},
		},
		{
			// A relocation's image round trip: a group of snapshotTuples
			// count-only tuples, half of them spilled, is taken out of
			// one (operator, store), encoded, decoded and installed into
			// another; the next pass moves it back. An op is one tuple of
			// the group; a pass makes a constant number of allocations
			// besides the log chunks the installed group fills.
			Name:     "relocation_image",
			DefaultN: snapshotTuples,
			Make: func() func(int) {
				src, srcStore := fill(join.New(3, partition.NewFunc(1), nil), 0, snapshotTuples/2), spill.Store(spill.NewMemStore())
				check(srcStore.Write(src.ExtractForSpill(0)))
				fill(src, snapshotTuples/2, snapshotTuples)
				dst, dstStore := join.New(3, partition.NewFunc(1), nil), spill.Store(spill.NewMemStore())
				return perPass(func() {
					im := must(spill.DecodeImage(spill.AppendImage(nil, must(spill.Take(src, srcStore, 0)))))
					check(im.Install(dst, dstStore))
					src, srcStore, dst, dstStore = dst, dstStore, src, srcStore
				})
			},
		},
		{
			// The count-only path with the observability layer live:
			// an open trace span and a logger consulted per tuple via
			// the Enabled guard (the hot-path pattern PROTOCOL.md
			// prescribes). Gates that tracing and structured logging
			// add zero allocations to the join data path.
			Name:     "join_process_observed",
			DefaultN: 300_000,
			Make: func() func(int) {
				op := join.New(3, partition.NewFunc(120), nil)
				tracer := obs.NewTracer(0)
				tracer.Start(obs.SpanCleanup, "bench", 0)
				lg := obs.NewLogger(obs.LoggerConfig{Node: "bench", Kind: "engine"})
				return func(i int) {
					if lg.Enabled(obs.LevelDebug) {
						lg.Debug("tuple_processed", obs.FInt("i", int64(i)))
					}
					must(op.Process(Tuple(i)))
				}
			},
		},
		{
			Name:     "join_process_materializing",
			DefaultN: 300_000,
			Make: func() func(int) {
				var sink uint64
				op := join.New(3, partition.NewFunc(120), func(r tuple.Result) { sink += r.Seqs[0] })
				return func(i int) {
					must(op.Process(Tuple(i % 50_000)))
				}
			},
		},
		{
			// Enumeration alone, per result: an emitting 3-way join over
			// 8 keys whose inputs 1 and 2 hold 10 and 12 tuples per key,
			// so a probe from input 0 emits 120 results. An op is one
			// result; every 120th op runs the probe that emits the next
			// 120, whose table probe and insert the results share.
			Name:     "join_enumerate",
			DefaultN: 6_000_000,
			Make: func() func(int) {
				const keys, fanout = 8, 10 * 12
				var sink uint64
				op := join.New(3, partition.NewFunc(keys), func(r tuple.Result) { sink += r.Seqs[2] })
				process := func(stream uint8, key uint64, seq int) uint64 {
					t := Tuple(seq)
					t.Stream, t.Key = stream, key
					return must(op.Process(t))
				}
				// Input 0 is empty while these arrive, so they emit nothing.
				for i := 0; i < 22*keys; i++ {
					stream := uint8(1)
					if i >= 10*keys {
						stream = 2
					}
					process(stream, uint64(i%keys), i)
				}
				return func(i int) {
					if i%fanout != 0 {
						return
					}
					if n := process(0, uint64(i/fanout%keys), i); n != fanout {
						panic(fmt.Sprintf("bench: a probe emitted %d results, want %d", n, fanout))
					}
				}
			},
		},
		{
			Name:     "tuple_decode",
			DefaultN: 1_000_000,
			Make: func() func(int) {
				t := Tuple(1)
				buf := t.AppendTo(nil)
				return func(int) {
					if _, _, err := tuple.Decode(buf); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			Name:     "batch_round_trip",
			DefaultN: 2_000,
			Make: func() func(int) {
				batch := batch256()
				return func(int) {
					buf := batch.Encode()
					must(tuple.DecodeBatch(buf))
				}
			},
		},
		{
			// What the engine's data path does to a received batch: one
			// structural scan, then a view per tuple. Gated at zero
			// allocations.
			Name:     "batch_stream",
			DefaultN: 20_000,
			Make: func() func(int) {
				buf := batch256().Encode()
				var sink uint64
				return func(int) {
					r := must(tuple.ReadBatch(buf))
					var t tuple.Tuple
					for r.Next(&t) {
						sink += t.Key + uint64(len(t.Payload))
					}
				}
			},
		},
		{
			// Route into a sink that copies on Send, as TCP does: each
			// owner keeps its batch buffer, one boxed Data per batch.
			Name:     "split_route",
			DefaultN: 1_000_000,
			Make: func() func(int) {
				owner := []partition.NodeID{"m1", "m2"}
				r := must(split.New(copySink{}, "gc", partition.NewFunc(2), owner, 1, split.DefaultBatchSize))
				return func(i int) {
					check(r.Route(Tuple(i)))
				}
			},
		},
		{
			// What the application server does with a materialised
			// result: ask the other phase's set, then add it to its own.
			// One distinct 3-way result per op, so the live heap is what
			// the set holds per result.
			Name:     "result_set_add",
			DefaultN: 1_000_000,
			GateLive: true,
			Make: func() func(int) {
				set, other := tuple.NewResultSet(), tuple.NewResultSet()
				seqs := make([]uint64, 3)
				return func(i int) {
					seqs[0], seqs[1], seqs[2] = uint64(i), uint64(i/3), uint64(i/7)
					r := tuple.Result{Key: uint64(i % 1000), Seqs: seqs}
					if other.Contains(r) || !set.Add(r) {
						panic(fmt.Sprintf("bench: result %d counted as a duplicate", i))
					}
				}
			},
		},
		{
			// The primary's replication tap, per tuple entering the join:
			// one slot index and an AppendTo into the buffer the slot
			// keeps across cuts. Every tapTick tuples a stats tick cuts all
			// 120 slots, each into one exact-size copy. Gated at
			// (amortized) zero allocations.
			Name:     "replica_tap",
			DefaultN: 1_000_000,
			Make: func() func(int) {
				const groups, tapTick = 120, 120 * 256
				type stream struct{}
				tap, live, pf := make(replica.Tap[stream], groups), &stream{}, partition.NewFunc(groups)
				for g := range tap {
					tap[g].Live = live
				}
				cut := func() {
					for g := range tap {
						tap[g].Cut()
					}
				}
				// Warm every slot: one tick's worth, cut.
				for i := 0; i < tapTick; i++ {
					t := Tuple(i)
					tap.Append(pf.Of(t.Key), &t)
				}
				cut()
				return func(i int) {
					t := Tuple(i)
					tap.Append(pf.Of(t.Key), &t)
					if (i+1)%tapTick == 0 {
						cut()
					}
				}
			},
		},
		{
			// A follower's DeltaAppend, per tuple: an entry of 256 tuples
			// is checked (structure, input bound, accounted size) and kept
			// as one encoded copy behind the standby's memory tier. Every
			// 256th op applies the next entry; a fresh standby starts every
			// 64 entries, as a spill marker would demote the tail.
			Name:     "replica_apply",
			DefaultN: 1_000_000,
			Make: func() func(int) {
				const perEntry, entries = 256, 64
				var run []byte
				for i := 0; i < perEntry; i++ {
					t := Tuple(i)
					run = t.AppendTo(run)
				}
				sb := replica.EmptyStandby(0, 3)
				return func(i int) {
					if i%perEntry != 0 {
						return
					}
					if i%(perEntry*entries) == 0 {
						sb = replica.EmptyStandby(0, 3)
					}
					must(sb.Append(run, 3))
				}
			},
		},
		{
			Name:     "snapshot_encode",
			DefaultN: 2_000,
			Make: func() func(int) {
				snap := BuildSnapshot()
				return func(int) { join.EncodeSnapshot(snap) }
			},
		},
		{
			Name:     "snapshot_decode",
			DefaultN: 2_000,
			Make: func() func(int) {
				buf := join.EncodeSnapshot(BuildSnapshot())
				return func(int) {
					must(join.DecodeSnapshot(buf))
				}
			},
		},
		{
			Name:     "cleanup_merge",
			DefaultN: 500,
			Make: func() func(int) {
				gens := cleanupGens()
				return func(int) {
					must(cleanup.Group(3, gens, 0, nil))
				}
			},
		},
	}
}

// Metric is one measured benchmark with fractional allocation counts
// (testing.BenchmarkResult rounds allocs/op to an integer, which hides
// the sub-1-alloc hot paths this gate watches).
type Metric struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// LiveBytesPerOp is the heap the case's state still holds after a
	// forced collection, per operation.
	LiveBytesPerOp float64 `json:"live_bytes_per_op"`
}

// Run measures one case over n iterations (DefaultN when n <= 0) on
// fresh state, after a small fresh-state warm-up run to take one-time
// lazy initialization out of the measurement.
func Run(c Case, n int) Metric {
	if n <= 0 {
		n = c.DefaultN
	}
	warm := c.Make()
	for i := 0; i < 16; i++ {
		warm(i)
	}
	op := c.Make()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := vclock.WallNow()
	for i := 0; i < n; i++ {
		op(i)
	}
	elapsed := vclock.WallSince(start)
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(op)
	return Metric{
		Name:           c.Name,
		N:              n,
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		LiveBytesPerOp: max(0, float64(live.HeapAlloc)-float64(before.HeapAlloc)) / float64(n),
	}
}
