package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/transport/faulty"
)

// parityLevels are the shard counts checked against the serial
// baseline: even/odd divisors of the partition count plus whatever this
// machine's GOMAXPROCS is (deduplicated).
func parityLevels() []int {
	levels := []int{2, 4}
	if p := runtime.GOMAXPROCS(0); p > 1 && p != 2 && p != 4 {
		levels = append(levels, p)
	}
	return levels
}

func runParityBaseline(t *testing.T, kind string) *cluster.Result {
	t.Helper()
	base, err := RunShardParity(kind, 1)
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	if base.RuntimeSet == nil || base.RuntimeSet.Len() == 0 {
		t.Fatal("serial baseline produced no run-time results")
	}
	return base
}

// TestShardParitySpillHeavy is the Figure 5 shape: a single engine
// spilling through many generations must produce set-identical run-time
// and cleanup results at every parallelism.
func TestShardParitySpillHeavy(t *testing.T) {
	base := runParityBaseline(t, ShardParitySpill)
	if spills := base.LocalSpills["m1"]; spills == 0 {
		t.Fatal("spill-heavy baseline never spilled; parity run is vacuous")
	}
	if base.Cleanup.Results == 0 {
		t.Fatal("spill-heavy baseline produced no cleanup results; parity run is vacuous")
	}
	for _, level := range parityLevels() {
		t.Run(fmt.Sprintf("parallelism%d", level), func(t *testing.T) {
			res, err := RunShardParity(ShardParitySpill, level)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range CheckShardParity(res, base) {
				t.Error(v)
			}
		})
	}
}

// TestShardParityRelocation is the Figure 11 shape: two engines under
// the ping-pong relocation strategy; shard workers must never observe a
// partition group mid-move.
func TestShardParityRelocation(t *testing.T) {
	base := runParityBaseline(t, ShardParityReloc)
	if base.Relocations == 0 {
		t.Fatal("relocation baseline never relocated; parity run is vacuous")
	}
	for _, level := range parityLevels() {
		t.Run(fmt.Sprintf("parallelism%d", level), func(t *testing.T) {
			res, err := RunShardParity(ShardParityReloc, level)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range CheckShardParity(res, base) {
				t.Error(v)
			}
		})
	}
}

// TestChaosParallelJoinExact replays seeded fault schedules with the
// shard pool enabled: drops, duplicates, and delays on the control
// plane must leave the parallel engine's result set exactly equal to
// the fault-free serial baseline.
func TestChaosParallelJoinExact(t *testing.T) {
	for _, seed := range []int64{2, 5} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{
				JoinParallelism: 4,
				Faults: faulty.Config{
					Seed:      seed,
					DropProb:  0.03,
					DupProb:   0.03,
					DelayProb: 0.05,
				},
			})
			if err != nil {
				t.Fatalf("chaos run hung or failed: %v", err)
			}
			assertExact(t, res)
		})
	}
}

// TestChaosTCPParallelJoinExact stacks every data-plane layer at once:
// the wire codec (coalescing + credit backpressure)
// over real sockets, the shard pool at parallelism 4, and a seeded
// fault schedule — the result set must still match the fault-free
// serial baseline exactly.
func TestChaosTCPParallelJoinExact(t *testing.T) {
	res, err := RunChaosTCP(ChaosConfig{
		JoinParallelism: 4,
		Faults: faulty.Config{
			Seed:      5,
			DropProb:  0.03,
			DupProb:   0.03,
			DelayProb: 0.05,
		},
	})
	if err != nil {
		t.Fatalf("tcp-native parallel chaos run hung or failed: %v", err)
	}
	assertExact(t, res)
	t.Logf("tcp-native parallel: relocations=%d aborted=%d generated=%d results=%d",
		res.Relocations, res.AbortedRelocations, res.Generated, res.RuntimeSet.Len())
}
