// Package distq is the public API of this repository: a distributed,
// non-blocking, state-intensive query processor with run-time state
// adaptation, reproducing "Optimizing State-Intensive Non-Blocking Queries
// Using Run-time Adaptation" (Liu, Jbantova, Rundensteiner, ICDE 2007).
//
// It offers two entry points:
//
//   - Cluster: a streaming m-way symmetric hash join running partitioned
//     over several (emulated or TCP-connected) engine nodes. Callers push
//     tuples with Ingest; the system spills the least productive partition
//     groups to disk on memory overflow, relocates partition groups
//     between engines under the lazy-disk or active-disk strategy, and
//     produces the missed results exactly in a final Cleanup phase.
//
//   - RunExperiment: the paper's experiment harness (synthetic workloads,
//     virtual time, throughput/memory series), used by the benchmarks that
//     regenerate each figure of the paper's evaluation.
package distq

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Aliases re-exporting the configuration and result vocabulary, so callers
// assemble everything through this package.
type (
	// NodeID names a cluster node.
	NodeID = partition.NodeID
	// WorkloadConfig parameterizes the paper's synthetic streams.
	WorkloadConfig = workload.Config
	// WorkloadClass is one partition class (join rate + tuple range).
	WorkloadClass = workload.Class
	// SkewPhase is one period of time-varying input skew.
	SkewPhase = workload.Phase
	// ExperimentConfig describes a full experiment run.
	ExperimentConfig = cluster.Config
	// ExperimentResult carries the series and counters an experiment
	// reports.
	ExperimentResult = cluster.Result
	// CleanupSummary aggregates the disk-phase outcome.
	CleanupSummary = cluster.CleanupSummary
	// SpillConfig holds the local spill threshold and k% fraction.
	SpillConfig = core.SpillConfig
	// Series is a virtual-time metric series.
	Series = stats.Series
	// Result is one join match, identified by the join key and the
	// per-stream sequence numbers of its input tuples.
	Result = tuple.Result
)

// RunExperiment executes one experiment on the given configuration.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return cluster.Run(cfg)
}

// NewTCPNetwork returns a transport running over real localhost sockets;
// pass it in ExperimentConfig.Network (or Options.Network) to exercise the
// full wire path. The directory maps node IDs to listen addresses
// (":0" picks a free port). The well-known roles cluster.CoordinatorNode,
// cluster.GeneratorNode and cluster.AppServerNode must be present besides
// the engines.
func NewTCPNetwork(directory map[NodeID]string) transport.Network {
	return transport.NewTCP(directory)
}

// StrategyKind selects the coordinator's adaptation strategy.
type StrategyKind int

// Available strategies.
const (
	// NoAdaptation disables coordinator-level adaptation: engines only
	// spill locally (the paper's "no-relocation" baseline; with local
	// spill disabled it is the "All-Mem" baseline).
	NoAdaptation StrategyKind = iota
	// LazyDiskStrategy relocates states while any machine has room and
	// leaves spilling a local last resort (paper Algorithm 1).
	LazyDiskStrategy
	// ActiveDiskStrategy additionally forces the globally least
	// productive machine to spill when productivity is skewed (paper
	// Algorithm 2).
	ActiveDiskStrategy
)

// StrategySpec configures a strategy by value, keeping the public API free
// of internal types.
type StrategySpec struct {
	Kind StrategyKind
	// Theta is θ_r, the memory-imbalance relocation threshold.
	Theta float64
	// MinGap is τ_m, the minimal time between relocations.
	MinGap time.Duration
	// Lambda is the active-disk productivity ratio threshold.
	Lambda float64
	// ForcedFraction is the share of state pushed per forced spill.
	ForcedFraction float64
	// MaxForcedBytes caps cumulative forced spilling (the paper's
	// M_query − M_cluster bound). Zero means uncapped.
	MaxForcedBytes int64
	// MemHighWater gates forced spills on memory pressure ("only if
	// extra memory is needed"). Zero disables the gate.
	MemHighWater int64
}

// Build materializes the strategy for an ExperimentConfig.
func (s StrategySpec) Build() core.Strategy {
	switch s.Kind {
	case LazyDiskStrategy:
		return core.NewLazyDisk(core.RelocationConfig{Threshold: s.Theta, MinGap: s.MinGap})
	case ActiveDiskStrategy:
		return core.NewActiveDisk(core.ActiveDiskConfig{
			Relocation:     core.RelocationConfig{Threshold: s.Theta, MinGap: s.MinGap},
			Lambda:         s.Lambda,
			ForcedFraction: s.ForcedFraction,
			MaxForcedBytes: s.MaxForcedBytes,
			MemHighWater:   s.MemHighWater,
		})
	default:
		return core.NoAdapt{}
	}
}

// LazyDisk returns the paper's lazy-disk strategy spec.
func LazyDisk(theta float64, minGap time.Duration) StrategySpec {
	return StrategySpec{Kind: LazyDiskStrategy, Theta: theta, MinGap: minGap}
}

// ActiveDisk returns the paper's active-disk strategy spec.
func ActiveDisk(theta float64, minGap time.Duration, lambda, forcedFraction float64, maxForcedBytes int64) StrategySpec {
	return StrategySpec{
		Kind: ActiveDiskStrategy, Theta: theta, MinGap: minGap,
		Lambda: lambda, ForcedFraction: forcedFraction, MaxForcedBytes: maxForcedBytes,
	}
}

// PolicyKind selects the spill victim policy.
type PolicyKind int

// Available spill policies.
const (
	// LessProductive spills the groups with the smallest
	// P_output/P_size first — the paper's throughput-oriented policy.
	LessProductive PolicyKind = iota
	// MoreProductive is the adversarial baseline of Figure 7.
	MoreProductive
	// LargestFirst is XJoin's flush-the-largest policy.
	LargestFirst
	// SmallestFirst spills the smallest non-empty groups first.
	SmallestFirst
	// RandomVictims spills uniformly random groups (Figures 5/6).
	RandomVictims
)

// Build materializes the policy; seed only matters for RandomVictims.
func (p PolicyKind) Build(seed int64) core.Policy {
	switch p {
	case MoreProductive:
		return core.MoreProductivePolicy{}
	case LargestFirst:
		return core.LargestPolicy{}
	case SmallestFirst:
		return core.SmallestPolicy{}
	case RandomVictims:
		return core.NewRandomPolicy(seed)
	default:
		return core.LessProductivePolicy{}
	}
}

// PolicyFor adapts a PolicyKind to ExperimentConfig.Policy.
func PolicyFor(kind PolicyKind, seed int64) func(NodeID) core.Policy {
	return func(NodeID) core.Policy { return kind.Build(seed) }
}

// validateEngines rejects engine names colliding with the reserved roles.
func validateEngines(engines []NodeID) error {
	if len(engines) == 0 {
		return fmt.Errorf("distq: no engines")
	}
	for _, e := range engines {
		switch e {
		case cluster.CoordinatorNode, cluster.GeneratorNode, cluster.AppServerNode, "":
			return fmt.Errorf("distq: reserved or empty engine name %q", e)
		}
	}
	return nil
}
