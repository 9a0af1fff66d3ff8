// Chaos experiments: run the full cluster under a fault-injecting
// transport (internal/transport/faulty) and assert the paper's
// exactness invariant survives — every join result is produced exactly
// once, no matter which relocation-protocol message the network loses,
// duplicates, or delays. (The scenarios that crash, promote and restart
// engines live in membership.go.)
//
// Every scenario is seeded and deterministic in its fault schedule, so
// a failure reproduces. The assertions mirror the coordinator's
// hardening contract: a disrupted relocation either completes via
// retry or rolls back via RelocAbort within the virtual-time deadline;
// the quiesce fence therefore always unblocks (zero hung coordinators),
// and the materialized result set matches a fault-free baseline
// exactly.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/transport/faulty"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// chaosWorkload is a small deterministic workload: big enough that
// every run performs several relocations, small enough that the full
// scenario matrix stays CI-cheap.
func chaosWorkload() workload.Config {
	return workload.Config{
		Streams:      2,
		Partitions:   24,
		Classes:      []workload.Class{{Fraction: 1, JoinRate: 2, TupleRange: 2000}},
		InterArrival: 30 * time.Millisecond,
		PayloadBytes: 24,
		Seed:         7,
	}
}

// pingPong relocates state back and forth between the two engines on
// every load-balance round, giving chaos scenarios a steady supply of
// relocations to disrupt. Amounts are small so each relocation moves a
// handful of partitions.
type pingPong struct{ n int }

// Name implements core.Strategy.
func (p *pingPong) Name() string { return "chaos-ping-pong" }

// Decide implements core.Strategy. The view's engines are in name order.
func (p *pingPong) Decide(v core.View) core.Decision {
	if len(v.Engines) < 2 {
		return core.Decision{}
	}
	from, to := v.Engines[0], v.Engines[1]
	if p.n%2 == 1 {
		from, to = to, from
	}
	if from.MemBytes() <= 0 || from.Groups <= 1 {
		return core.Decision{}
	}
	p.n++
	amount := from.MemBytes() / 4
	if amount <= 0 {
		amount = 1
	}
	return core.Decision{Kind: core.Relocate, Sender: from.Node, Receiver: to.Node, Amount: amount, Reason: "chaos ping-pong"}
}

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	// Faults is the seeded fault schedule for the wrapped transport.
	Faults faulty.Config
	// Drop arms one deterministic one-shot drop before the run starts
	// (the per-protocol-message scenarios).
	Drop func(from, to partition.NodeID, msg proto.Message) bool
	// DropCount is how many matching messages the one-shot eats
	// (default 1).
	DropCount int
	// Duration is the virtual run-time phase length (default 3 minutes).
	Duration time.Duration
}

// chaosClusterConfig is the shared cluster shape of every chaos run:
// two engines under the ping-pong relocation strategy with aggressive
// protocol timeouts, materialized results for exactness checking.
func chaosClusterConfig(wl workload.Config, duration time.Duration) cluster.Config {
	return cluster.Config{
		Engines:        []partition.NodeID{"e1", "e2"},
		Workload:       wl,
		InitialWeights: []int{2, 1},
		Strategy:       &pingPong{},
		Materialize:    true,
		Scale:          600,
		Duration:       duration,
		LBInterval:     10 * time.Second,
		RelocTimeout:   30 * time.Second,
	}
}

// RunChaos executes one faulted run and returns its result. The run
// itself is the liveness assertion: if a dropped message hung the
// relocation protocol, the quiesce fence inside would time out and
// surface as an error.
func RunChaos(cc ChaosConfig) (*cluster.Result, error) {
	return runChaosOver(transport.NewInproc(), cc)
}

// RunChaosTCP executes the same faulted run over the real TCP
// transport, so the wire codec, write coalescing and credit
// backpressure are held to the same exactness bar under faults.
func RunChaosTCP(cc ChaosConfig) (*cluster.Result, error) {
	return runChaosOver(chaosTCP(), cc)
}

// chaosTCP is a loopback TCP network for the two-engine chaos clusters.
func chaosTCP() *transport.TCP {
	return transport.NewTCP(map[partition.NodeID]string{
		cluster.CoordinatorNode: "127.0.0.1:0",
		cluster.GeneratorNode:   "127.0.0.1:0",
		cluster.AppServerNode:   "127.0.0.1:0",
		"e1":                    "127.0.0.1:0",
		"e2":                    "127.0.0.1:0",
	})
}

func runChaosOver(inner transport.Network, cc ChaosConfig) (*cluster.Result, error) {
	duration := cc.Duration
	if duration <= 0 {
		duration = 3 * time.Minute
	}
	cfg := chaosClusterConfig(chaosWorkload(), duration)

	fnet := faulty.New(inner, vclock.NewScaled(cfg.Scale), cc.Faults)
	defer fnet.Close()
	if cc.Drop != nil {
		n := cc.DropCount
		if n <= 0 {
			n = 1
		}
		fnet.DropMatching(n, cc.Drop)
	}
	cfg.Network = fnet
	return cluster.Run(cfg)
}

// RunChaosBaseline executes the fault-free twin of RunChaos (same
// workload, strategy, and duration) for exactness comparison.
func RunChaosBaseline(duration time.Duration) (*cluster.Result, error) {
	if duration <= 0 {
		duration = 3 * time.Minute
	}
	return cluster.Run(chaosClusterConfig(chaosWorkload(), duration))
}

// CheckExactness compares a chaos run's materialized results against
// the fault-free baseline: identical input, identical result set, no
// duplicates, and no relocation left unresolved. It returns a list of
// human-readable violations (empty means exact).
func CheckExactness(res, baseline *cluster.Result) []string {
	var bad []string
	if res.Generated != baseline.Generated {
		bad = append(bad, fmt.Sprintf("generated %d tuples, baseline %d", res.Generated, baseline.Generated))
	}
	if res.Duplicates != 0 {
		bad = append(bad, fmt.Sprintf("%d duplicate results", res.Duplicates))
	}
	if res.UnresolvedRelocations != 0 {
		bad = append(bad, fmt.Sprintf("%d unresolved relocations", res.UnresolvedRelocations))
	}
	if res.RuntimeSet == nil || baseline.RuntimeSet == nil {
		bad = append(bad, "missing materialized result sets")
		return bad
	}
	if miss := baseline.RuntimeSet.Diff(res.RuntimeSet); len(miss) > 0 {
		bad = append(bad, fmt.Sprintf("%d baseline results missing (first: %s)", len(miss), miss[0]))
	}
	if extra := res.RuntimeSet.Diff(baseline.RuntimeSet); len(extra) > 0 {
		bad = append(bad, fmt.Sprintf("%d extra results not in baseline (first: %s)", len(extra), extra[0]))
	}
	return bad
}
