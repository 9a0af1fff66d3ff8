package cluster

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/operator"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Config describes one cluster. Every entry point — the experiment
// harness, the distq facade, the four node binaries — states its cluster
// as a Config; the methods below are the only places one turns into a
// partition map or a component's configuration.
type Config struct {
	// Engines lists the query engine nodes (the paper's processors).
	Engines []partition.NodeID
	// Workload parameterizes the synthetic input streams; its Streams and
	// Partitions are the join's shape also where no generator runs.
	Workload workload.Config
	// InitialWeights skews the initial partition distribution over the
	// engines (e.g. 3,1,1 for the paper's 60/20/20 setup); nil means
	// uniform.
	InitialWeights []int
	// Strategy is the coordinator's adaptation strategy (default NoAdapt).
	Strategy core.Strategy
	// Spill configures the local overflow spill (threshold + k%).
	Spill core.SpillConfig
	// LocalSpill enables the engines' ss_timer overflow check.
	LocalSpill bool
	// Policy builds the per-engine spill victim policy (default
	// less-productive, or its smoothed variant under SmoothingAlpha).
	Policy func(node partition.NodeID) core.Policy
	// Materialize ships full results to the application server and
	// keeps duplicate-checked result sets (exactness tests, examples).
	Materialize bool
	// OnResult, when set, receives every materialized result on the
	// application server's handler goroutine, outside its lock; the
	// result's Seqs are the callback's to keep.
	OnResult func(proto.Phase, tuple.Result)
	// PreFilter, when set, is a stateless select/project chain every
	// engine applies before tuples enter join state.
	PreFilter operator.Operator
	// EnumerateResults makes engines enumerate (but not ship) every
	// result, so run-time and cleanup costs include result production.
	EnumerateResults bool
	// SmoothingAlpha, when positive, switches the engines to the
	// amortized (EWMA) productivity model. Overrides Policy's default
	// only; an explicit Policy still wins for spill victims.
	SmoothingAlpha float64
	// Window, when positive, runs the join with a sliding time window
	// (virtual) and periodic state purging.
	Window time.Duration
	// Scale compresses virtual time (default 600: 1 v-minute = 100 ms).
	Scale float64
	// Duration is the virtual length of Run's run-time phase.
	Duration time.Duration
	// RunCleanup makes Run execute the disk phase after the run-time phase.
	RunCleanup bool
	// JoinParallelism must be 0 or 1: an engine's join runs on its
	// handler goroutine, and more cores means more Engines. New and
	// NewStreaming reject any larger value.
	//
	// Deprecated: add engines instead; the field will be removed.
	JoinParallelism int
	// GroupMetrics, when positive, makes every engine export per-group
	// productivity gauges for its top GroupMetrics groups (see
	// engine.Config).
	GroupMetrics int
	// StoreDir, when set, gives each engine file-backed segment stores
	// under StoreDir/<node> (see NodeStores); empty means in-memory.
	StoreDir string
	// Network overrides the transport (default in-process). Wrap the
	// default with transport/faulty and pass it here to inject faults.
	Network transport.Network
	// Replicate enables per-group replication and follower promotion:
	// the coordinator assigns every partition group a follower engine,
	// primaries stream state deltas to keep the followers warm, and the
	// watchdog fails a dead engine's groups over to their followers
	// instead of parking them until it returns (see coordinator.Config).
	Replicate bool
	// RelocTimeout / RelocMaxRetries / HeartbeatTimeout forward to the
	// coordinator's hardening knobs (see coordinator.Config); at zero
	// the relocation deadlines and heartbeat watchdog stay disarmed,
	// which is right for the loss-free in-process transport.
	RelocTimeout     time.Duration
	RelocMaxRetries  int
	HeartbeatTimeout time.Duration
	// StatsInterval, SpillCheckInterval, LBInterval are the virtual
	// timer periods (sr_timer, ss_timer, lb_timer); at zero the engines
	// and the coordinator apply their own defaults (5 s, 2 s, 10 s).
	StatsInterval      time.Duration
	SpillCheckInterval time.Duration
	LBInterval         time.Duration
}

// Map builds the cluster's initial partition map: Workload.Partitions
// groups placed over Engines by InitialWeights. The coordinator owns it,
// the split host starts from a snapshot of it; separate processes build
// equal maps from equal flags.
func (c *Config) Map() (*partition.Map, error) {
	if len(c.Engines) == 0 {
		return nil, fmt.Errorf("cluster: no engines")
	}
	assign := partition.UniformAssign(c.Engines)
	if c.InitialWeights != nil {
		var err error
		if assign, err = partition.WeightedAssign(c.Engines, c.InitialWeights); err != nil {
			return nil, err
		}
	}
	return partition.NewMap(c.Workload.Partitions, assign)
}

// CoordinatorConfig configures the cluster's coordinator over the map m.
func (c *Config) CoordinatorConfig(m *partition.Map) coordinator.Config {
	strategy := c.Strategy
	if strategy == nil {
		strategy = core.NoAdapt{}
	}
	return coordinator.Config{
		Node:             CoordinatorNode,
		SplitHost:        GeneratorNode,
		Engines:          c.Engines,
		Strategy:         strategy,
		Map:              m,
		LBInterval:       c.LBInterval,
		RelocTimeout:     c.RelocTimeout,
		RelocMaxRetries:  c.RelocMaxRetries,
		HeartbeatTimeout: c.HeartbeatTimeout,
		Replicate:        c.Replicate,
	}
}

// EngineConfig configures the cluster's engine node over its two stores
// (see NodeStores). DynamicJoin and Addr belong to one engine's admission,
// not to the cluster: the caller sets them.
func (c *Config) EngineConfig(node partition.NodeID, store, standby spill.Store) engine.Config {
	ec := engine.Config{
		Node:               node,
		Coordinator:        CoordinatorNode,
		AppServer:          AppServerNode,
		Inputs:             c.Workload.Streams,
		Partitions:         c.Workload.Partitions,
		Spill:              c.Spill,
		LocalSpill:         c.LocalSpill,
		Store:              store,
		StandbyStore:       standby,
		Materialize:        c.Materialize,
		EnumerateResults:   c.EnumerateResults,
		PreFilter:          c.PreFilter,
		SmoothingAlpha:     c.SmoothingAlpha,
		GroupMetrics:       c.GroupMetrics,
		Window:             c.Window,
		StatsInterval:      c.StatsInterval,
		SpillCheckInterval: c.SpillCheckInterval,
	}
	// Left nil, the engine picks less-productive, or its smoothed variant
	// over the engine's own tracker under SmoothingAlpha.
	if c.Policy != nil {
		ec.Policy = c.Policy(node)
	}
	return ec
}

// NodeStores opens the two segment stores of an engine whose directory
// is dir: its spill store in dir and, in dir/standby, the disk tier of
// the standby copies it holds as a follower — apart, because cleanup runs
// over every group of the first and must not see standby segments until
// a promotion adopts them. An empty dir gives nil stores (in memory).
func NodeStores(dir string) (store, standby spill.Store, err error) {
	if dir == "" {
		return nil, nil, nil
	}
	if store, err = spill.NewFileStore(dir); err != nil {
		return nil, nil, err
	}
	if standby, err = spill.NewFileStore(filepath.Join(dir, "standby")); err != nil {
		return nil, nil, err
	}
	return store, standby, nil
}
