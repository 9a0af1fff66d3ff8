package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// fastWorkload is a small, quick workload for end-to-end tests: 3-way
// join, 24 partitions, 20 ms virtual inter-arrival.
func fastWorkload() workload.Config {
	return workload.Config{
		Streams:      3,
		Partitions:   24,
		Classes:      []workload.Class{{Fraction: 1, JoinRate: 3, TupleRange: 1200}},
		InterArrival: 20 * time.Millisecond,
		PayloadBytes: 24,
		Seed:         7,
	}
}

func baseConfig() Config {
	return Config{
		Engines:  []partition.NodeID{"m1", "m2"},
		Workload: fastWorkload(),
		// Moderate compression: virtual timers must stay large in wall
		// time so concurrent test packages cannot starve them.
		Scale:              1200,
		Duration:           2 * time.Minute,
		StatsInterval:      3 * time.Second,
		SpillCheckInterval: 2 * time.Second,
		LBInterval:         5 * time.Second,
	}
}

func TestAllMemRunProducesResults(t *testing.T) {
	cfg := baseConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("no tuples generated")
	}
	wantTuples := uint64(cfg.Workload.Streams) * uint64(cfg.Duration/cfg.Workload.InterArrival)
	if res.Generated != wantTuples {
		t.Fatalf("generated %d tuples, want %d", res.Generated, wantTuples)
	}
	if res.RuntimeOutput == 0 {
		t.Fatal("no results produced")
	}
	if forced := forcedSpills(res); res.Relocations != 0 || forced != 0 {
		t.Fatalf("NoAdapt run adapted: %d relocations, %d forced spills", res.Relocations, forced)
	}
	for node, s := range res.Memory {
		if s.Len() == 0 {
			t.Fatalf("no memory samples for %s", node)
		}
	}
	if res.Throughput.Len() == 0 {
		t.Fatal("no throughput samples")
	}
	if got := res.Throughput.Last(); got != float64(res.RuntimeOutput) {
		t.Fatalf("throughput series ends at %v, runtime output %d", got, res.RuntimeOutput)
	}
}

// runtimeEqualsOracleWithoutSpill checks the full-memory distributed run
// produces the complete join result.
func TestAllMemMatchesOracle(t *testing.T) {
	cfg := baseConfig()
	cfg.Materialize = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the generator gives the same tuple multiset only if the
	// pick order matches; the feeder interleaves streams per flush tick,
	// while our replay goes stream by stream. Instead of replaying,
	// verify internal consistency: materialized set size equals counted
	// output and there are no duplicates.
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicate results", res.Duplicates)
	}
	if uint64(res.RuntimeSet.Len()) != res.RuntimeOutput {
		t.Fatalf("materialized %d results, counted %d", res.RuntimeSet.Len(), res.RuntimeOutput)
	}
}

func TestSpillRunStaysUnderThresholdAndCleansUp(t *testing.T) {
	cfg := baseConfig()
	cfg.Engines = []partition.NodeID{"m1"}
	cfg.Scale = 1000 // keep the single engine unsaturated so ss_timer checks run on schedule
	cfg.LocalSpill = true
	cfg.Spill = core.SpillConfig{MemThreshold: 64 << 10, Fraction: 0.3}
	cfg.Materialize = true
	cfg.RunCleanup = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalSpills["m1"] == 0 {
		t.Fatal("no spills despite tight threshold")
	}
	// Memory stays bounded: spills keep the peak far below the all-in-
	// memory total (threshold + the ingest of a few check intervals,
	// which can burst under queueing).
	var perTuple int64 = 24 + 56 // payload + accounting overhead
	total := float64(int64(res.Generated) * perTuple)
	peak := res.Memory["m1"].Max()
	if peak > total*0.6 {
		t.Fatalf("memory peak %v not bounded below all-mem total %v", peak, total)
	}
	if peak < float64(cfg.Spill.MemThreshold)/2 {
		t.Fatalf("memory peak %v suspiciously low for threshold %d", peak, cfg.Spill.MemThreshold)
	}
	if res.Cleanup.Results == 0 {
		t.Fatal("cleanup produced nothing despite spills")
	}
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicates across phases", res.Duplicates)
	}
	// Exactness: runtime + cleanup must equal the oracle over exactly
	// the tuples fed. With a single engine and uniform workload the fed
	// tuple multiset is deterministic, so replay the generator through
	// an oracle join.
	gen, err := workload.New(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	var history []tuple.Tuple
	perStream := uint64(cfg.Duration / cfg.Workload.InterArrival)
	// The feeder emits tuples in timestamp order across streams; pick
	// order only matters for the phase-dependent rng, which a uniform
	// workload does not consult... but rng draws for partition picks are
	// sequential, so replicate the feeder's exact interleaving: at each
	// timestamp step all streams emit one tuple, stream 0 first.
	for i := uint64(0); i < perStream; i++ {
		for s := 0; s < cfg.Workload.Streams; s++ {
			history = append(history, gen.Next(s, 0))
		}
	}
	want := join.OracleCount(cfg.Workload.Streams, history)
	got := res.RuntimeOutput + res.Cleanup.Results
	if got != want {
		t.Fatalf("runtime %d + cleanup %d = %d results, oracle %d",
			res.RuntimeOutput, res.Cleanup.Results, got, want)
	}
}

func TestRelocationBalancesSkewedPlacement(t *testing.T) {
	cfg := baseConfig()
	cfg.Engines = []partition.NodeID{"m1", "m2", "m3"}
	cfg.InitialWeights = []int{4, 1, 1}
	cfg.Strategy = core.NewLazyDisk(core.RelocationConfig{Threshold: 0.8, MinGap: 20 * time.Second})
	cfg.Duration = 3 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relocations == 0 {
		t.Fatal("no relocations despite 4:1:1 placement")
	}
	// After relocations the final memory distribution should be much
	// more balanced than 4:1.
	var maxM, minM float64
	for _, s := range res.Memory {
		v := s.Last()
		if v > maxM {
			maxM = v
		}
		if minM == 0 || v < minM {
			minM = v
		}
	}
	if minM <= 0 || maxM/minM > 2.5 {
		t.Fatalf("final memory imbalance %v/%v after %d relocations", maxM, minM, res.Relocations)
	}
}

func TestRelocationLosesNothing(t *testing.T) {
	// The hard invariant: with relocations happening mid-stream, the
	// distributed run must still produce the complete result set
	// (materialized, duplicate-free, same size as counted output), and
	// a subsequent cleanup adds nothing when no spills occurred.
	cfg := baseConfig()
	cfg.Engines = []partition.NodeID{"m1", "m2", "m3"}
	cfg.InitialWeights = []int{4, 1, 1}
	cfg.Strategy = core.NewLazyDisk(core.RelocationConfig{Threshold: 0.9, MinGap: 10 * time.Second})
	cfg.Materialize = true
	cfg.RunCleanup = true
	cfg.Duration = 3 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relocations == 0 {
		t.Fatal("test needs relocations to be meaningful")
	}
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicates", res.Duplicates)
	}
	if res.Cleanup.Results != 0 {
		t.Fatalf("cleanup produced %d results without any spill", res.Cleanup.Results)
	}
	if uint64(res.RuntimeSet.Len()) != res.RuntimeOutput {
		t.Fatalf("materialized %d, counted %d", res.RuntimeSet.Len(), res.RuntimeOutput)
	}
	gen, err := workload.New(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	var history []tuple.Tuple
	perStream := uint64(cfg.Duration / cfg.Workload.InterArrival)
	for i := uint64(0); i < perStream; i++ {
		for s := 0; s < cfg.Workload.Streams; s++ {
			history = append(history, gen.Next(s, 0))
		}
	}
	want := join.OracleCount(cfg.Workload.Streams, history)
	if res.RuntimeOutput != want {
		t.Fatalf("runtime output %d, oracle %d: results lost or duplicated during relocation", res.RuntimeOutput, want)
	}
}

func TestSpillPlusRelocationExactness(t *testing.T) {
	// Lazy-disk under memory pressure: spills and relocations interleave;
	// runtime + cleanup must still be exact.
	cfg := baseConfig()
	cfg.Engines = []partition.NodeID{"m1", "m2"}
	cfg.InitialWeights = []int{3, 1}
	// A high θ_r and a roomy threshold make both adaptation kinds fire
	// reliably: relocation first (imbalanced placement), spills later
	// (total state exceeds both thresholds).
	cfg.Strategy = core.NewLazyDisk(core.RelocationConfig{Threshold: 0.9, MinGap: 10 * time.Second})
	cfg.LocalSpill = true
	cfg.Spill = core.SpillConfig{MemThreshold: 72 << 10, Fraction: 0.3}
	cfg.Materialize = true
	cfg.RunCleanup = true
	cfg.Duration = 3 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalSpills := res.LocalSpills["m1"] + res.LocalSpills["m2"]
	if totalSpills == 0 || res.Relocations == 0 {
		t.Fatalf("need both adaptations: %d spills, %d relocations", totalSpills, res.Relocations)
	}
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicates", res.Duplicates)
	}
	gen, err := workload.New(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	var history []tuple.Tuple
	perStream := uint64(cfg.Duration / cfg.Workload.InterArrival)
	for i := uint64(0); i < perStream; i++ {
		for s := 0; s < cfg.Workload.Streams; s++ {
			history = append(history, gen.Next(s, 0))
		}
	}
	want := join.OracleCount(cfg.Workload.Streams, history)
	got := res.RuntimeOutput + res.Cleanup.Results
	if got != want {
		t.Fatalf("runtime %d + cleanup %d = %d, oracle %d", res.RuntimeOutput, res.Cleanup.Results, got, want)
	}
}

// activeDiskConfig is a run in which the active-disk strategy must force
// spills: two engines whose productivity differs strongly.
func activeDiskConfig() Config {
	cfg := baseConfig()
	cfg.Engines = []partition.NodeID{"m1", "m2"}
	// Give m1's partitions a much higher join rate so productivity
	// differs strongly across machines.
	cfg.Workload.Classes = []workload.Class{
		{Fraction: 0.5, JoinRate: 6, TupleRange: 1200},
		{Fraction: 0.5, JoinRate: 1, TupleRange: 1200},
	}
	cfg.Strategy = core.NewActiveDisk(core.ActiveDiskConfig{
		Relocation:     core.RelocationConfig{Threshold: 0.5, MinGap: 20 * time.Second},
		Lambda:         1.5,
		ForcedFraction: 0.3,
	})
	cfg.LocalSpill = true
	cfg.Spill = core.SpillConfig{MemThreshold: 1 << 30, Fraction: 0.3} // local never triggers
	cfg.Duration = 3 * time.Minute
	return cfg
}

func TestActiveDiskForcesSpills(t *testing.T) {
	res, err := Run(activeDiskConfig())
	if err != nil {
		t.Fatal(err)
	}
	if forcedSpills(res) == 0 {
		t.Fatal("active-disk never forced a spill despite productivity gap")
	}
}

// forcedSpills counts the forced spills the coordinator completed.
func forcedSpills(res *Result) int {
	return int(res.Counter("distq_coordinator_forced_spills_total"))
}

// TestFinishCountsEveryEngineLife: m2 spills, crashes, restarts empty
// under its own name and spills again. The result's counters hold both
// lives, each under its life label, and LocalSpills and SpilledBytes
// sum them, exactly as the two lives' registries counted.
func TestFinishCountsEveryEngineLife(t *testing.T) {
	cfg := baseConfig()
	cfg.LocalSpill = true
	cfg.Spill = core.SpillConfig{MemThreshold: 16 << 10, Fraction: 0.4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	spilled := func() bool { return c.Engine("m2").Registry().Sum("distq_engine_spills_total") > 0 }
	first := c.Engine("m2")
	if err := c.Feed(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Await(30*time.Second, spilled) {
		t.Fatal("m2's first life never spilled")
	}
	if err := c.Crash("m2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("m2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Feed(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Await(30*time.Second, spilled) {
		t.Fatal("m2's second life never spilled")
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	const spills, bytes = "distq_engine_spills_total", "distq_engine_spill_bytes_total"
	node := obs.L("node", "m2")
	total := make(map[string]float64)
	for _, name := range []string{spills, bytes} {
		for i, life := range []*engine.Engine{first, c.Engine("m2")} {
			want := life.Registry().Sum(name)
			if got := res.Counter(name, node, obs.L("life", fmt.Sprint(i+1))); got != want || want == 0 {
				t.Errorf("%s of m2's life %d = %v, its registry counted %v", name, i+1, got, want)
			}
			total[name] += want
		}
		if got := res.Counter(name, node); got != total[name] {
			t.Errorf("%s of m2 = %v, want both lives' %v", name, got, total[name])
		}
	}
	if res.LocalSpills["m2"] != int(total[spills]) || res.SpilledBytes["m2"] != int64(total[bytes]) {
		t.Errorf("m2: LocalSpills %d, SpilledBytes %d; its two lives spilled %v times, %v bytes",
			res.LocalSpills["m2"], res.SpilledBytes["m2"], total[spills], total[bytes])
	}
}

func TestRunOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	cfg := baseConfig()
	dir := map[partition.NodeID]string{
		CoordinatorNode: "127.0.0.1:0",
		GeneratorNode:   "127.0.0.1:0",
		AppServerNode:   "127.0.0.1:0",
		"m1":            "127.0.0.1:0",
		"m2":            "127.0.0.1:0",
	}
	net := transport.NewTCP(dir)
	defer net.Close()
	cfg.Network = net
	cfg.Strategy = core.NewLazyDisk(core.RelocationConfig{Threshold: 0.8, MinGap: 20 * time.Second})
	cfg.InitialWeights = []int{3, 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeOutput == 0 {
		t.Fatal("no output over TCP transport")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := baseConfig()
	cfg.Duration = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero duration accepted")
	}
	cfg = baseConfig()
	cfg.Workload.Streams = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid workload accepted")
	}
	cfg = baseConfig()
	cfg.InitialWeights = []int{1} // wrong length
	if _, err := Run(cfg); err == nil {
		t.Fatal("mismatched weights accepted")
	}
}

// JoinParallelism is deprecated: 0 and 1 build and start a cluster as
// before, and anything larger is refused.
func TestJoinParallelismAbove1IsRefused(t *testing.T) {
	for _, tc := range []struct {
		parallelism int
		ok          bool
	}{{0, true}, {1, true}, {2, false}} {
		t.Run(fmt.Sprintf("parallelism=%d", tc.parallelism), func(t *testing.T) {
			cfg := baseConfig()
			cfg.JoinParallelism = tc.parallelism
			c, err := New(cfg)
			if !tc.ok {
				if err == nil || !strings.Contains(err.Error(), "add engines") {
					t.Fatalf("error %v, want one that says to add engines", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFileStoreBackedRun(t *testing.T) {
	cfg := baseConfig()
	cfg.Engines = []partition.NodeID{"m1"}
	cfg.LocalSpill = true
	cfg.Spill = core.SpillConfig{MemThreshold: 64 << 10, Fraction: 0.3}
	cfg.StoreDir = t.TempDir()
	cfg.RunCleanup = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalSpills["m1"] == 0 {
		t.Fatal("no spills")
	}
	if res.Cleanup.Results == 0 {
		t.Fatal("cleanup produced nothing from file store")
	}
}
