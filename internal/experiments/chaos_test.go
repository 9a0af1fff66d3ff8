package experiments

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport/faulty"
)

// chaosBaseline computes the fault-free twin once per test binary.
var chaosBaseline *cluster.Result

func baselineResult(t *testing.T) *cluster.Result {
	t.Helper()
	if chaosBaseline == nil {
		res, err := RunChaosBaseline(0)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		chaosBaseline = res
	}
	return chaosBaseline
}

func assertExact(t *testing.T, res *cluster.Result) {
	t.Helper()
	for _, v := range CheckExactness(res, baselineResult(t)) {
		t.Error(v)
	}
}

// TestChaosProtocolMessageDrops drops the first instance of each
// relocation-protocol message (one scenario per message, deterministic
// one-shot) and asserts that every disrupted relocation completes via
// retry or clean abort — the run's quiesce fence unblocks, nothing is
// left unresolved, and the result set stays exact.
func TestChaosProtocolMessageDrops(t *testing.T) {
	scenarios := []struct {
		name string
		pred func(from, to partition.NodeID, msg proto.Message) bool
		// count is how many matching messages the one-shot eats: 1
		// exercises the retry path; enough to exhaust the retry budget
		// (initial send + RelocMaxRetries re-sends) forces the abort
		// state machine.
		count int
		// minAborts asserts the scenario actually drove a rollback.
		minAborts int
	}{
		{"CptV", isType[proto.CptV], 1, 0},
		{"PtV", isType[proto.PtV], 1, 0},
		{"Pause", isType[proto.Pause], 1, 0},
		{"PauseMarker", isType[proto.PauseMarker], 1, 0},
		{"MarkerAck", isType[proto.MarkerAck], 1, 0},
		{"SendStates", isType[proto.SendStates], 1, 0},
		{"StateTransfer", isType[proto.StateTransfer], 1, 0},
		{"Installed", isType[proto.Installed], 1, 0},
		{"Remap", isType[proto.Remap], 1, 0},
		{"RemapAck", isType[proto.RemapAck], 1, 0},
		// Exhausting retries in wait_ptv aborts before any state moved.
		{"PtVExhausted", isType[proto.PtV], 3, 1},
		// Exhausting retries in wait_marker aborts and resumes the
		// paused partitions at the split host.
		{"MarkerAckExhausted", isType[proto.MarkerAck], 3, 1},
		// Exhausting retries in wait_installed with the transfer itself
		// lost rolls the sender's extracted state back in.
		{"StateTransferExhausted", isType[proto.StateTransfer], 3, 1},
		// Exhausting retries with only the Installed acks lost makes the
		// abort probe find the state installed — commit forward, no
		// rollback.
		{"InstalledExhausted", isType[proto.Installed], 3, 0},
	}
	for _, sc := range scenarios {
		t.Run("drop"+sc.name, func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{Drop: sc.pred, DropCount: sc.count})
			if err != nil {
				t.Fatalf("chaos run hung or failed: %v", err)
			}
			assertExact(t, res)
			retries, aborts := retryCount(res), res.AbortedRelocations
			if retries+aborts == 0 {
				t.Errorf("dropped %s left no retry or abort trace (retries=%d aborts=%d)", sc.name, retries, aborts)
			}
			if aborts < sc.minAborts {
				t.Errorf("dropped %s ×%d: want at least %d aborts, got %d", sc.name, sc.count, sc.minAborts, aborts)
			}
			t.Logf("%s: relocations=%d aborted=%d retries=%d generated=%d results=%d",
				sc.name, res.Relocations, res.AbortedRelocations, retries, res.Generated, res.RuntimeSet.Len())
		})
	}
}

// retryCount is how many step re-sends the run's coordinator counted.
func retryCount(res *cluster.Result) int {
	return int(res.Counter("distq_coordinator_reloc_retries_total"))
}

func isType[T proto.Message](_, _ partition.NodeID, msg proto.Message) bool {
	_, ok := msg.(T)
	return ok
}

// TestChaosSeededMatrix runs randomized control-plane drop/dup/delay
// schedules under fixed seeds; every seed must preserve liveness and
// exactness. This is the `make chaos-smoke` matrix.
func TestChaosSeededMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3, 5}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{Faults: faulty.Config{
				Seed:      seed,
				DropProb:  0.03,
				DupProb:   0.03,
				DelayProb: 0.05,
			}})
			if err != nil {
				t.Fatalf("chaos run hung or failed: %v", err)
			}
			assertExact(t, res)
			t.Logf("seed %d: relocations=%d aborted=%d retries=%d errors=%.0f",
				seed, res.Relocations, res.AbortedRelocations,
				retryCount(res), res.Counter("distq_coordinator_errors_total"))
		})
	}
}

// TestChaosTCPNativeExact re-runs the seeded fault schedule over the
// real TCP transport (every message on the wire codec, zero-copy bulk
// framing, write coalescing, credit backpressure): the wire format
// must not cost a single result under faults.
func TestChaosTCPNativeExact(t *testing.T) {
	res, err := RunChaosTCP(ChaosConfig{Faults: faulty.Config{
		Seed:      11,
		DropProb:  0.03,
		DupProb:   0.03,
		DelayProb: 0.05,
	}})
	if err != nil {
		t.Fatalf("tcp-native chaos run hung or failed: %v", err)
	}
	assertExact(t, res)
	t.Logf("tcp-native: relocations=%d aborted=%d retries=%d generated=%d results=%d",
		res.Relocations, res.AbortedRelocations,
		retryCount(res), res.Generated, res.RuntimeSet.Len())
}
