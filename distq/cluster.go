package distq

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/coordinator"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/split"
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
	// handler goroutine.
	OnResult func(Phase, Result)
	// Filter, when set, is a stateless select/project chain applied at
	// every engine before tuples enter join state (see NewSelect,
	// NewProject, NewChain).
	Filter StreamOperator
	// Window, when positive, runs the join with a sliding time window
	// (virtual): matches span at most Window, and expired state is
	// purged — the paper's infinite-streams-with-finite-windows mode.
	Window time.Duration
	// StoreDir, when set, backs each engine's segment store with files
	// under StoreDir/<node>.
	StoreDir string
	// JoinParallelism sizes each engine's join shard-worker pool (0 or
	// 1 = serial data path). The result set is identical at any setting.
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
	opts    Options
	clock   vclock.Clock
	net     transport.Network
	ownsNet bool

	router  *split.Router
	ep      transport.Endpoint
	app     *cluster.AppServer
	coord   *coordinator.Coordinator
	engines map[NodeID]*engine.Engine

	// seqs numbers each input's tuples; drained and closed gate Ingest.
	// Atomics, so the router's lock is the only one a tuple takes.
	seqs    []atomic.Uint64
	drained atomic.Bool
	closed  atomic.Bool

	drainCh   chan proto.DrainAck
	quiesceCh chan struct{}
	token     uint64
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
	c := &Cluster{
		opts:      opts,
		clock:     vclock.NewScaled(opts.TimeScale),
		seqs:      make([]atomic.Uint64, opts.Inputs),
		engines:   make(map[NodeID]*engine.Engine, len(opts.Engines)),
		drainCh:   make(chan proto.DrainAck, 64),
		quiesceCh: make(chan struct{}, 1),
	}
	c.net = opts.Network
	if c.net == nil {
		c.net = transport.NewInproc()
		c.ownsNet = true
	}
	if err := c.assemble(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) assemble() error {
	opts := c.opts
	assign := partition.UniformAssign(opts.Engines)
	if opts.InitialWeights != nil {
		var err error
		assign, err = partition.WeightedAssign(opts.Engines, opts.InitialWeights)
		if err != nil {
			return err
		}
	}
	masterMap, err := partition.NewMap(opts.Partitions, assign)
	if err != nil {
		return err
	}

	materialize := opts.OnResult != nil
	var onResult func(proto.Phase, tuple.Result)
	if materialize {
		onResult = func(p proto.Phase, r tuple.Result) { c.opts.OnResult(Phase(p), r) }
	}
	c.app = cluster.NewAppServer(c.clock, materialize, onResult)
	if err := c.app.Attach(c.net); err != nil {
		return err
	}

	c.coord, err = coordinator.New(coordinator.Config{
		Node:       cluster.CoordinatorNode,
		SplitHost:  cluster.GeneratorNode,
		Engines:    opts.Engines,
		Strategy:   opts.Strategy.Build(),
		Map:        masterMap,
		LBInterval: opts.LBInterval,
	}, c.clock)
	if err != nil {
		return err
	}
	if err := c.coord.Attach(c.net); err != nil {
		return err
	}

	for i, node := range opts.Engines {
		var store spill.Store
		if opts.StoreDir != "" {
			fs, err := spill.NewFileStore(filepath.Join(opts.StoreDir, string(node)))
			if err != nil {
				return err
			}
			store = fs
		}
		e, err := engine.New(engine.Config{
			Node:               node,
			Coordinator:        cluster.CoordinatorNode,
			AppServer:          cluster.AppServerNode,
			Inputs:             opts.Inputs,
			Partitions:         opts.Partitions,
			Spill:              opts.Spill,
			LocalSpill:         opts.Spill.MemThreshold > 0,
			Policy:             opts.Policy.Build(int64(i + 1)),
			Store:              store,
			Materialize:        materialize,
			PreFilter:          opts.Filter,
			Window:             opts.Window,
			JoinParallelism:    opts.JoinParallelism,
			StatsInterval:      opts.StatsInterval,
			SpillCheckInterval: opts.SpillCheckInterval,
		}, c.clock)
		if err != nil {
			return err
		}
		if err := e.Attach(c.net); err != nil {
			return err
		}
		c.engines[node] = e
	}

	ep, err := c.net.Attach(cluster.GeneratorNode, c.handleGenerator)
	if err != nil {
		return err
	}
	c.ep = ep
	owner, version := masterMap.Snapshot()
	c.router, err = split.New(ep, cluster.CoordinatorNode, partition.NewFunc(opts.Partitions), owner, version, split.DefaultBatchSize)
	if err != nil {
		return err
	}

	if err := c.coord.Start(); err != nil {
		return err
	}
	for _, e := range c.engines {
		if err := e.Start(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) handleGenerator(from NodeID, msg proto.Message) {
	if handled, _ := c.router.HandleControl(msg); handled {
		return
	}
	//distq:handles generator
	switch m := msg.(type) {
	case proto.DrainAck:
		c.drainCh <- m
	case proto.QuiesceAck:
		select {
		case c.quiesceCh <- struct{}{}:
		default:
		}
	}
}

// Ingest pushes one tuple into the given join input. Tuples are batched;
// call Flush to force delivery of partial batches. The payload is copied
// before Ingest returns, so the caller may reuse its buffer.
func (c *Cluster) Ingest(stream int, key uint64, payload []byte) error {
	if stream < 0 || stream >= c.opts.Inputs {
		return fmt.Errorf("distq: stream %d out of range (inputs=%d)", stream, c.opts.Inputs)
	}
	if c.drained.Load() || c.closed.Load() {
		return fmt.Errorf("distq: cluster is drained or closed")
	}
	return c.router.Route(tuple.Tuple{
		Stream:  uint8(stream),
		Key:     key,
		Seq:     c.seqs[stream].Add(1) - 1,
		Ts:      c.clock.Now(),
		Payload: payload,
	})
}

// Flush forces delivery of partially filled batches.
func (c *Cluster) Flush() error { return c.router.Flush() }

// Now reports the cluster's current virtual time.
func (c *Cluster) Now() vclock.Time { return c.clock.Now() }

// Drain ends the run-time phase: it quiesces the coordinator (finishing
// any in-flight relocation), then fences the FIFO data paths so every
// ingested tuple is fully processed. After Drain, Ingest fails.
func (c *Cluster) Drain() error {
	if !c.drained.CompareAndSwap(false, true) {
		return nil
	}

	if err := c.ep.Send(cluster.CoordinatorNode, proto.Quiesce{}); err != nil {
		return err
	}
	select {
	case <-c.quiesceCh:
	case <-vclock.WallTimeout(30 * time.Second):
		return fmt.Errorf("distq: quiesce timed out")
	}
	if err := c.router.Flush(); err != nil {
		return err
	}
	c.token++
	for _, node := range c.opts.Engines {
		if err := c.ep.Send(node, proto.Drain{Token: c.token}); err != nil {
			return err
		}
	}
	pending := len(c.opts.Engines)
	timeout := vclock.WallTimeout(60 * time.Second)
	for pending > 0 {
		select {
		case ack := <-c.drainCh:
			if ack.Token == c.token {
				pending--
			}
		case <-timeout:
			return fmt.Errorf("distq: drain timed out with %d engines pending", pending)
		}
	}
	// Fence the application server too, so every OnResult callback for
	// the run-time phase has fired before Drain returns.
	c.token++
	if err := c.ep.Send(cluster.AppServerNode, proto.Drain{Token: c.token}); err != nil {
		return err
	}
	for {
		select {
		case ack := <-c.drainCh:
			if ack.Token == c.token {
				return nil
			}
		case <-timeout:
			return fmt.Errorf("distq: app-server drain timed out")
		}
	}
}

// Cleanup runs the disk phase on every engine: disk-resident partition
// group generations are merged and exactly the missed results are
// produced (delivered to OnResult with PhaseCleanup when set). Call it
// after Drain.
func (c *Cluster) Cleanup() (CleanupSummary, error) {
	if !c.drained.Load() {
		return CleanupSummary{}, fmt.Errorf("distq: Cleanup before Drain")
	}
	return c.app.RunCleanup(c.opts.Engines)
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

// Snapshot reports current statistics. It is only exact after Drain; while
// streaming it reflects the engines' last statistics reports.
func (c *Cluster) Snapshot() Stats {
	s := Stats{MemBytes: make(map[NodeID]int64, len(c.engines))}
	for node, e := range c.engines {
		s.Output += e.Op().Output()
		s.MemBytes[node] = e.Op().MemBytes()
		s.Spills += e.SpillManager().Count()
		s.SpilledBytes += e.SpillManager().SpilledBytes()
	}
	s.Relocations = c.coord.Relocations()
	s.ForcedSpills = c.coord.ForcedSpills()
	s.Duplicates = c.app.Duplicates()
	return s
}

// Close stops timers and detaches from the network.
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	var stopped []<-chan struct{}
	if c.coord != nil {
		c.coord.Stop()
		stopped = append(stopped, c.coord.Done())
	}
	for _, e := range c.engines {
		e.Stop()
		stopped = append(stopped, e.Done())
	}
	cluster.AwaitStopped(5*time.Second, stopped...)
	if c.ownsNet {
		return c.net.Close()
	}
	return nil
}
