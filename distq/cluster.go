package distq

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// Phase tags a result as produced during the run-time or cleanup phase.
type Phase int

// Result phases.
const (
	PhaseRuntime Phase = iota
	PhaseCleanup
)

// Options configures a streaming Cluster.
type Options struct {
	// Engines lists the query engine nodes (≥1).
	Engines []NodeID
	// Inputs is the number of join inputs (m ≥ 2).
	Inputs int
	// Partitions is the number of partition groups (default 120).
	Partitions int
	// InitialWeights skews the initial partition placement; nil means
	// uniform.
	InitialWeights []int
	// Strategy is the coordinator's adaptation strategy.
	Strategy StrategySpec
	// Spill is the local overflow spill configuration; a zero
	// MemThreshold disables local spilling.
	Spill SpillConfig
	// Policy selects spill victims (default LessProductive).
	Policy PolicyKind
	// OnResult, when set, receives every produced join result (both
	// phases). Results are delivered from the application server's
	// handler goroutine, outside its lock, so a callback may call
	// Snapshot. A result's Seqs stay valid after the call and are the
	// callback's to keep.
	OnResult func(Phase, Result)
	// Filter, when set, is a stateless select/project chain applied at
	// every engine before tuples enter join state (see NewSelect,
	// NewProject, NewChain). A filtered query stamps every tuple with
	// its virtual arrival time, so a predicate may read Ts.
	Filter StreamOperator
	// Window, when positive, runs the join with a sliding time window
	// (virtual): matches span at most Window, and expired state is
	// purged — the paper's infinite-streams-with-finite-windows mode.
	// A windowed query stamps every tuple with its virtual arrival time;
	// with no window and no Filter nothing reads Ts, and it stays 0.
	Window time.Duration
	// StoreDir, when set, backs each engine's segment store with files
	// under StoreDir/<node>.
	StoreDir string
	// JoinParallelism must be 0 or 1: each engine's join runs on its
	// handler goroutine, and more cores means more Engines. NewCluster
	// rejects any larger value.
	//
	// Deprecated: add engines instead; the field will be removed.
	JoinParallelism int
	// TimeScale compresses virtual time (default 1: real time).
	TimeScale float64
	// StatsInterval, SpillCheckInterval, LBInterval override the
	// adaptation timer periods (virtual).
	StatsInterval      time.Duration
	SpillCheckInterval time.Duration
	LBInterval         time.Duration
	// Network overrides the transport (default in-process).
	Network transport.Network
}

// Cluster is a running distributed join: a split host routing ingested
// tuples to partitioned engine instances under an adaptive coordinator.
type Cluster struct {
	opts  Options
	c     *cluster.Cluster
	clock vclock.Clock
	// stamp: a window or a filter predicate can read Ts (see Ingest).
	stamp bool

	// seqs numbers each input's tuples; drained and closed gate Ingest.
	// Atomics, so the router's lock is the only one a tuple takes.
	seqs    []atomic.Uint64
	drained atomic.Bool
	closed  atomic.Bool
}

// NewCluster assembles and starts a Cluster.
func NewCluster(opts Options) (*Cluster, error) {
	if err := validateEngines(opts.Engines); err != nil {
		return nil, err
	}
	if opts.Inputs < 2 {
		return nil, fmt.Errorf("distq: need at least 2 inputs, got %d", opts.Inputs)
	}
	if opts.Partitions <= 0 {
		opts.Partitions = 120
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 1
	}
	c, err := cluster.NewStreaming(opts.config())
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		c.Close()
		return nil, err
	}
	return &Cluster{
		opts: opts, c: c, clock: c.Clock(),
		stamp: opts.Window > 0 || opts.Filter != nil,
		seqs:  make([]atomic.Uint64, opts.Inputs),
	}, nil
}

// config states the cluster the options describe: the one place Options
// become a cluster.Config.
func (o Options) config() cluster.Config {
	cfg := cluster.Config{
		Engines:        o.Engines,
		Workload:       WorkloadConfig{Streams: o.Inputs, Partitions: o.Partitions},
		InitialWeights: o.InitialWeights,
		Strategy:       o.Strategy.Build(),
		Spill:          o.Spill,
		LocalSpill:     o.Spill.MemThreshold > 0,
		// The i-th engine's policy is seeded i+1 (RandomVictims only).
		Policy: func(node NodeID) core.Policy {
			return o.Policy.Build(int64(slices.Index(o.Engines, node) + 1))
		},
		Materialize:        o.OnResult != nil,
		PreFilter:          o.Filter,
		Window:             o.Window,
		Scale:              o.TimeScale,
		JoinParallelism:    o.JoinParallelism,
		StoreDir:           o.StoreDir,
		Network:            o.Network,
		StatsInterval:      o.StatsInterval,
		SpillCheckInterval: o.SpillCheckInterval,
		LBInterval:         o.LBInterval,
	}
	if o.OnResult != nil {
		cfg.OnResult = func(p proto.Phase, r tuple.Result) { o.OnResult(Phase(p), r) }
	}
	return cfg
}

// Ingest pushes one tuple into the given join input. Tuples are batched;
// call Flush to force delivery of partial batches. Over TCP a sent batch
// is on the wire within 5 ms, flushed by the next frame or the
// connection's backstop. The payload is copied
// before Ingest returns, so the caller may reuse its buffer. A query with
// a Window or a Filter stamps the tuple's Ts with the current virtual
// time; any other query leaves Ts 0 and reads no clock, since its join
// and cleanup never look at it.
func (c *Cluster) Ingest(stream int, key uint64, payload []byte) error {
	if stream < 0 || stream >= c.opts.Inputs {
		return fmt.Errorf("distq: stream %d out of range (inputs=%d)", stream, c.opts.Inputs)
	}
	if c.drained.Load() || c.closed.Load() {
		return fmt.Errorf("distq: cluster is drained or closed")
	}
	t := tuple.Tuple{
		Stream:  uint8(stream),
		Key:     key,
		Seq:     c.seqs[stream].Add(1) - 1,
		Payload: payload,
	}
	if c.stamp {
		t.Ts = c.clock.Now()
	}
	return c.c.Router().Route(t)
}

// Flush forces delivery of partially filled batches: over TCP they are on
// the wire within 5 ms, flushed by the next frame or the connection's
// backstop.
func (c *Cluster) Flush() error { return c.c.Router().Flush() }

// Now reports the cluster's current virtual time.
func (c *Cluster) Now() vclock.Time { return c.clock.Now() }

// Drain ends the run-time phase: it quiesces the coordinator (finishing
// any in-flight relocation), then fences the FIFO data paths so every
// ingested tuple is fully processed and every OnResult callback for the
// run-time phase has fired. After Drain, Ingest fails.
func (c *Cluster) Drain() error {
	if !c.drained.CompareAndSwap(false, true) {
		return nil
	}
	if err := c.c.Quiesce(); err != nil {
		return err
	}
	return c.c.Drain()
}

// Cleanup runs the disk phase on every engine: disk-resident partition
// group generations are merged and exactly the missed results are
// produced (delivered to OnResult with PhaseCleanup when set). Call it
// after Drain.
func (c *Cluster) Cleanup() (CleanupSummary, error) {
	if !c.drained.Load() {
		return CleanupSummary{}, fmt.Errorf("distq: Cleanup before Drain")
	}
	return c.c.AppServer().RunCleanup(c.opts.Engines)
}

// Stats is a point-in-time view of the cluster.
type Stats struct {
	// Output is the total number of run-time results produced.
	Output uint64
	// MemBytes maps each engine to its resident state size.
	MemBytes map[NodeID]int64
	// Spills and SpilledBytes aggregate the engines' spill activity.
	Spills       int
	SpilledBytes int64
	// Relocations and ForcedSpills count coordinator adaptations.
	Relocations  int
	ForcedSpills int
	// Duplicates counts duplicate results observed (always 0 when the
	// adaptation protocols behave).
	Duplicates int
}

// Snapshot reports current statistics; it may be called at any time,
// from any goroutine. While streaming, Output is what the application
// server has counted and MemBytes each engine's last statistics report;
// both are exact after Drain, which fences every engine's report behind
// the tuples ingested before it.
func (c *Cluster) Snapshot() Stats {
	s := Stats{MemBytes: make(map[NodeID]int64, len(c.opts.Engines))}
	for _, node := range c.opts.Engines {
		e := c.c.Engine(node)
		r := e.StatsSnapshot()
		s.MemBytes[node] = r.MemBytes - r.Standby
		s.Spills += int(e.Registry().Sum("distq_engine_spills_total"))
		s.SpilledBytes += int64(e.Registry().Sum("distq_engine_spill_bytes_total"))
	}
	s.Output = c.c.AppServer().Results()
	s.Relocations = c.c.Coordinator().Relocations()
	s.ForcedSpills = c.c.Coordinator().ForcedSpills()
	s.Duplicates = c.c.AppServer().Duplicates()
	return s
}

// Close stops timers and detaches from the network.
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	return c.c.Close()
}
