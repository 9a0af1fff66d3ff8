package distq

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/tuple"
)

// TestSnapshotWhileStreaming calls Snapshot every few hundred Ingests
// while the engines spill locally, as a dashboard polling a live
// cluster would. Under -race it fails if Snapshot reads state an
// engine's handler writes; after Drain its counts must still be exact.
func TestSnapshotWhileStreaming(t *testing.T) {
	c, err := NewCluster(Options{
		Engines:            []NodeID{"m1", "m2"},
		Inputs:             3,
		Partitions:         16,
		Spill:              SpillConfig{MemThreshold: 32 << 10, Fraction: 0.3},
		StatsInterval:      20 * time.Millisecond,
		SpillCheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(9))
	var history []tuple.Tuple
	seqs := make([]uint64, 3)
	for i := 0; i < 6000; i++ {
		stream, key := rng.Intn(3), uint64(rng.Intn(64))
		history = append(history, tuple.Tuple{Stream: uint8(stream), Key: key, Seq: seqs[stream]})
		seqs[stream]++
		if err := c.Ingest(stream, key, nil); err != nil {
			t.Fatal(err)
		}
		if i%300 == 299 {
			c.Snapshot()
		}
		if i%1000 == 999 {
			time.Sleep(10 * time.Millisecond) // let timers fire mid-stream
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Spills == 0 || s.SpilledBytes == 0 {
		t.Fatalf("no spills counted under a 32 KiB threshold: %+v", s)
	}
	summary, err := c.Cleanup()
	if err != nil {
		t.Fatal(err)
	}
	if want := join.OracleCount(3, history); s.Output+summary.Results != want {
		t.Fatalf("Output %d after Drain + cleanup %d, oracle %d", s.Output, summary.Results, want)
	}
}

func TestClusterStreamingMatchesOracle(t *testing.T) {
	var (
		mu      sync.Mutex
		runtime int
		cleanup int
	)
	set := tuple.NewResultSet()
	c, err := NewCluster(Options{
		Engines:    []NodeID{"m1", "m2"},
		Inputs:     3,
		Partitions: 16,
		Strategy:   LazyDisk(0.8, 50*time.Millisecond),
		Spill:      SpillConfig{MemThreshold: 32 << 10, Fraction: 0.3},
		TimeScale:  1,
		OnResult: func(p Phase, r Result) {
			mu.Lock()
			defer mu.Unlock()
			if !set.Add(r) {
				t.Error("duplicate result")
			}
			if p == PhaseRuntime {
				runtime++
			} else {
				cleanup++
			}
		},
		StatsInterval:      20 * time.Millisecond,
		SpillCheckInterval: 10 * time.Millisecond,
		LBInterval:         30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(5))
	var history []tuple.Tuple
	seqs := make([]uint64, 3)
	for i := 0; i < 6000; i++ {
		stream := rng.Intn(3)
		key := uint64(rng.Intn(64))
		history = append(history, tuple.Tuple{Stream: uint8(stream), Key: key, Seq: seqs[stream]})
		seqs[stream]++
		if err := c.Ingest(stream, key, nil); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			time.Sleep(10 * time.Millisecond) // let timers fire mid-stream
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	summary, err := c.Cleanup()
	if err != nil {
		t.Fatal(err)
	}
	stats := c.Snapshot()
	if stats.Spills == 0 {
		t.Fatal("expected spills under a 32 KiB threshold")
	}
	want := join.OracleCount(3, history)
	got := stats.Output + summary.Results
	if got != want {
		t.Fatalf("runtime %d + cleanup %d = %d, oracle %d", stats.Output, summary.Results, got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(runtime+cleanup) != want {
		t.Fatalf("callback saw %d+%d results, oracle %d", runtime, cleanup, want)
	}
	if stats.Duplicates != 0 {
		t.Fatalf("%d duplicates", stats.Duplicates)
	}
}

// A second Cleanup returns the first one's summary and delivers no result
// again: each engine answers a repeated StartCleanup with the report it
// already sent instead of merging its spilled groups a second time.
func TestClusterSecondCleanupRepeatsSummary(t *testing.T) {
	var (
		mu        sync.Mutex
		delivered int
	)
	c, err := NewCluster(Options{
		Engines:    []NodeID{"m1", "m2"},
		Inputs:     3,
		Partitions: 16,
		Spill:      SpillConfig{MemThreshold: 32 << 10, Fraction: 0.3},
		TimeScale:  1,
		OnResult: func(Phase, Result) {
			mu.Lock()
			delivered++
			mu.Unlock()
		},
		SpillCheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6000; i++ {
		if err := c.Ingest(rng.Intn(3), uint64(rng.Intn(64)), nil); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			time.Sleep(10 * time.Millisecond) // let the spill timer fire
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	first, err := c.Cleanup()
	if err != nil {
		t.Fatal(err)
	}
	if first.Results == 0 {
		t.Fatal("first cleanup produced no results; test has no power")
	}
	mu.Lock()
	afterFirst := delivered
	mu.Unlock()
	second, err := c.Cleanup()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("second summary %+v, want the first %+v", second, first)
	}
	mu.Lock()
	afterSecond := delivered
	mu.Unlock()
	if afterSecond != afterFirst {
		t.Fatalf("OnResult saw %d results after the first Cleanup, %d after the second", afterFirst, afterSecond)
	}
	if d := c.Snapshot().Duplicates; d != 0 {
		t.Fatalf("%d duplicates", d)
	}
}

func TestClusterIngestValidation(t *testing.T) {
	c, err := NewCluster(Options{Engines: []NodeID{"m1"}, Inputs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ingest(5, 1, nil); err == nil {
		t.Fatal("out-of-range stream accepted")
	}
	if err := c.Ingest(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(0, 1, nil); err == nil {
		t.Fatal("ingest after drain accepted")
	}
	if err := c.Drain(); err != nil {
		t.Fatal("second drain not idempotent")
	}
}

func TestClusterCleanupRequiresDrain(t *testing.T) {
	c, err := NewCluster(Options{Engines: []NodeID{"m1"}, Inputs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Cleanup(); err == nil {
		t.Fatal("cleanup before drain accepted")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Options{Inputs: 2}); err == nil {
		t.Fatal("no engines accepted")
	}
	if _, err := NewCluster(Options{Engines: []NodeID{"gc"}, Inputs: 2}); err == nil {
		t.Fatal("reserved engine name accepted")
	}
	if _, err := NewCluster(Options{Engines: []NodeID{"m1"}, Inputs: 1}); err == nil {
		t.Fatal("single-input join accepted")
	}
	if _, err := NewCluster(Options{Engines: []NodeID{"m1", "m2"}, Inputs: 2, InitialWeights: []int{1}}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	// The deprecated JoinParallelism passes through to the cluster, which
	// refuses more than 1 before it builds a node: no goroutine starts.
	before := runtime.NumGoroutine()
	_, err := NewCluster(Options{Engines: []NodeID{"m1", "m2"}, Inputs: 2, JoinParallelism: 4})
	if err == nil || !strings.Contains(err.Error(), "add engines") {
		t.Fatalf("JoinParallelism 4: error %v, want one that says to add engines", err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("a refused JoinParallelism left %d goroutines running", n-before)
	}
}

func TestStrategySpecBuild(t *testing.T) {
	if LazyDisk(0.8, time.Second).Build().Name() != "lazy-disk" {
		t.Fatal("LazyDisk spec built wrong strategy")
	}
	if ActiveDisk(0.8, time.Second, 2, 0.3, 100).Build().Name() != "active-disk" {
		t.Fatal("ActiveDisk spec built wrong strategy")
	}
	if (StrategySpec{}).Build().Name() != "no-relocation" {
		t.Fatal("zero spec built wrong strategy")
	}
}

func TestPolicyKindBuild(t *testing.T) {
	cases := map[PolicyKind]string{
		LessProductive: "push-less-productive",
		MoreProductive: "push-more-productive",
		LargestFirst:   "push-largest",
		SmallestFirst:  "push-smallest",
		RandomVictims:  "push-random",
	}
	for kind, want := range cases {
		if got := kind.Build(1).Name(); got != want {
			t.Errorf("PolicyKind(%d).Build().Name() = %q, want %q", kind, got, want)
		}
	}
	if PolicyFor(LargestFirst, 0)("any").Name() != "push-largest" {
		t.Fatal("PolicyFor adapter broken")
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Engines: []NodeID{"m1", "m2"},
		Workload: WorkloadConfig{
			Streams:      3,
			Partitions:   16,
			Classes:      []WorkloadClass{{Fraction: 1, JoinRate: 2, TupleRange: 800}},
			InterArrival: 20 * time.Millisecond,
			Seed:         3,
		},
		Scale:    2000,
		Duration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeOutput == 0 {
		t.Fatal("no output")
	}
}

func TestNewAggregate(t *testing.T) {
	a := NewAggregate(AggMin, 16)
	a.Process(1, 30)
	a.Process(1, 10)
	if v, ok := a.Value(1); !ok || v != 10 {
		t.Fatalf("min = %d, %v", v, ok)
	}
	if NewAggregate(AggCount, 4).Kind() != AggCount {
		t.Fatal("kind not propagated")
	}
}

func TestClusterOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	net := NewTCPNetwork(map[NodeID]string{
		"gc": "127.0.0.1:0", "gen": "127.0.0.1:0", "app": "127.0.0.1:0",
		"m1": "127.0.0.1:0", "m2": "127.0.0.1:0",
	})
	defer net.Close()
	c, err := NewCluster(Options{
		Engines:  []NodeID{"m1", "m2"},
		Inputs:   2,
		Strategy: LazyDisk(0.8, 100*time.Millisecond),
		Network:  net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2000; i++ {
		// i%2 and i%50 share parity; divide first so both streams see
		// every key.
		if err := c.Ingest(i%2, uint64((i/2)%50), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	stats := c.Snapshot()
	if stats.Output == 0 {
		t.Fatal("no output over TCP")
	}
	// 2000 tuples over 50 keys, 2 streams: each key has ~20 per stream,
	// full join ~50*20*20 = 20000 (exact value depends on the split).
	if stats.Output < 10_000 {
		t.Fatalf("output %d suspiciously low", stats.Output)
	}
}

func TestClusterWithFilter(t *testing.T) {
	var matches int
	var mu sync.Mutex
	c, err := NewCluster(Options{
		Engines: []NodeID{"m1"},
		Inputs:  2,
		// Drop odd keys and truncate payloads before they enter state.
		Filter: NewChain(
			NewSelect("even", func(t *StreamTuple) bool { return t.Key%2 == 0 }),
			NewProject("drop-payload", func(t StreamTuple) StreamTuple { t.Payload = nil; return t }),
		),
		OnResult: func(Phase, Result) { mu.Lock(); matches++; mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		c.Ingest(0, uint64(i%10), []byte("payload"))
		c.Ingest(1, uint64(i%10), []byte("payload"))
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	stats := c.Snapshot()
	// Only even keys (0,2,4,6,8) survive: 10 occurrences per stream per
	// key -> 5 keys * 10 * 10 = 500 matches.
	mu.Lock()
	defer mu.Unlock()
	if matches != 500 || stats.Output != 500 {
		t.Fatalf("matches=%d output=%d, want 500", matches, stats.Output)
	}
	// Payloads were projected away: resident bytes reflect only overhead.
	var resident int64
	for _, b := range stats.MemBytes {
		resident += b
	}
	if want := int64(100) * 56; resident != want {
		t.Fatalf("resident=%d, want %d (100 surviving tuples, no payloads)", resident, want)
	}
}

// TestIngestCopiesPayload feeds every tuple from one buffer that is
// overwritten between calls, as a caller reading a socket would, and
// checks the bytes that reached the engines' state. Ingest must have
// copied the payload before it returned — the split router once kept the
// caller's slice until the batch filled.
func TestIngestCopiesPayload(t *testing.T) {
	const inputs, n = 2, 3000
	c, err := NewCluster(Options{Engines: []NodeID{"m1", "m2"}, Inputs: inputs, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf, uint64(i))
		if err := c.Ingest(i%inputs, uint64(i%97), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, node := range c.opts.Engines {
		e := c.c.Engine(node)
		for _, id := range e.Op().ResidentIDs() {
			snap := e.Op().ResidentSnapshot(id)
			for stream := range snap.Inputs {
				for r, tp := snap.Input(stream), (tuple.Tuple{}); r.Next(&tp); {
					seen++
					// Tuple i is its stream's (i/inputs)-th.
					want := tp.Seq*inputs + uint64(stream)
					if got := binary.LittleEndian.Uint64(tp.Payload); got != want {
						t.Fatalf("stream %d seq %d stored payload %d, ingested %d", stream, tp.Seq, got, want)
					}
				}
			}
		}
	}
	if seen != n {
		t.Fatalf("%d tuples resident, ingested %d", seen, n)
	}
}

// Ingest is documented as callable from any goroutine, and its sequence
// numbers and drained/closed gate are atomics beside the router's lock:
// concurrent callers must still give every tuple of a stream its own
// sequence number, 0..n-1 with none skipped, and lose none.
func TestIngestFromManyGoroutines(t *testing.T) {
	const inputs, workers, each = 2, 4, 2000
	c, err := NewCluster(Options{Engines: []NodeID{"m1", "m2"}, Inputs: inputs, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Ingest(i%inputs, uint64(w*each+i), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(0, 1, nil); err == nil {
		t.Fatal("Ingest after Drain succeeded")
	}
	seen := make([]map[uint64]bool, inputs)
	for i := range seen {
		seen[i] = make(map[uint64]bool)
	}
	for _, node := range c.opts.Engines {
		e := c.c.Engine(node)
		for _, id := range e.Op().ResidentIDs() {
			snap := e.Op().ResidentSnapshot(id)
			for stream := range snap.Inputs {
				for r, tp := snap.Input(stream), (tuple.Tuple{}); r.Next(&tp); {
					if seen[stream][tp.Seq] {
						t.Fatalf("stream %d: sequence number %d given twice", stream, tp.Seq)
					}
					seen[stream][tp.Seq] = true
				}
			}
		}
	}
	for stream, s := range seen {
		if want := workers * each / inputs; len(s) != want {
			t.Fatalf("stream %d holds %d tuples, ingested %d", stream, len(s), want)
		}
		for seq := uint64(0); seq < uint64(len(s)); seq++ {
			if !s[seq] {
				t.Fatalf("stream %d: sequence number %d skipped", stream, seq)
			}
		}
	}
}
