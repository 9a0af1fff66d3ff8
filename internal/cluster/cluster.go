// Package cluster is the composition root: the one place the paper's
// four node kinds — a stream generator node hosting the split operators,
// N query engine nodes, the global coordinator, and an application
// server collecting results — are built and wired, communicating only
// through a transport (in-process channels by default, or TCP) under a
// virtual clock. A Config states the cluster; SplitHost (with Feeder on
// top) and AppServer are the two node kinds that live here, the other
// two are configured here (Config.CoordinatorConfig, Config.EngineConfig).
// The experiment harness (New), the distq facade (NewStreaming) and the
// node binaries under cmd/ (one node each) all assemble from these.
//
// Run executes the paper's experiment shape: a run-time phase of a given
// virtual duration, a quiesce + drain fence, and an optional cleanup
// phase, returning the series and counters the figures plot. For
// fault-injection scripts that interleave feeding with crashes and
// restarts, New returns a Cluster whose phases are driven explicitly
// (Start / Feed / Crash / Restart / Quiesce / Drain / Finish).
package cluster

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/coordinator"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/split"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Well-known node names for the non-engine roles.
const (
	CoordinatorNode = partition.NodeID("gc")
	GeneratorNode   = partition.NodeID("gen")
	AppServerNode   = partition.NodeID("app")
)

// CleanupSummary aggregates the disk-phase outcome across engines.
type CleanupSummary struct {
	PerNode map[partition.NodeID]proto.CleanupDone
	// Results is the total number of missed results produced.
	Results uint64
	// Tuples is the total number of spilled tuples scanned.
	Tuples int
	// MaxElapsed is the slowest engine's cleanup time — the cluster's
	// cleanup latency when engines clean up in parallel (paper §5.2).
	MaxElapsed time.Duration
	// TotalElapsed sums all engines' cleanup times — the latency if one
	// machine had to do all the work serially.
	TotalElapsed time.Duration
}

// Result is everything an experiment reports.
type Result struct {
	// Throughput is the cumulative run-time output over virtual time
	// (what the paper's throughput figures plot).
	Throughput *stats.Series
	// Memory maps each engine to its resident-state series.
	Memory map[partition.NodeID]*stats.Series
	// RuntimeOutput is the total run-time phase output.
	RuntimeOutput uint64
	// Generated is the number of input tuples produced.
	Generated uint64
	// Relocations, AbortedRelocations and UnresolvedRelocations count
	// the relocations the coordinator completed, rolled back cleanly and
	// gave up on after exhausting retries (unresolved leaves partitions
	// paused — always a finding); Promotions its completed follower
	// promotions. LocalSpills and SpilledBytes are each engine's spills
	// (forced ones included) and spilled bytes over all its lives. Finish
	// reads all six from Metrics with Counter, as every other count is
	// read.
	Relocations           int
	AbortedRelocations    int
	UnresolvedRelocations int
	Promotions            int
	LocalSpills           map[partition.NodeID]int
	SpilledBytes          map[partition.NodeID]int64
	// Cleanup summarizes the disk phase (zero value if not run).
	Cleanup CleanupSummary
	// RuntimeSet / CleanupSet hold the materialized results
	// (Materialize mode only).
	RuntimeSet *tuple.ResultSet
	CleanupSet *tuple.ResultSet
	// Duplicates counts duplicate results observed across both phases.
	Duplicates int
	// BufferedPeak is the split host's maximal pause-buffer size.
	BufferedPeak int
	// Spans merges every node's recorded spans (coordinator relocation /
	// forced-spill spans, engine spill / transfer / cleanup spans),
	// ordered by virtual start time.
	Spans []obs.SpanData
	// Metrics merges the coordinator's registry and every engine life's,
	// crashed lives included. Each value carries a "node" label, and an
	// engine's a "life" label too: "1" for its first life, "2" after its
	// first restart, and so on.
	Metrics []obs.MetricValue
}

// Counter sums the series of metric name in Metrics whose labels include
// each of match: the count an operator reads from the nodes' /metrics,
// over every life of every engine.
func (r *Result) Counter(name string, match ...obs.Label) float64 {
	var sum float64
next:
	for _, mv := range r.Metrics {
		if mv.Name != name {
			continue
		}
		for _, l := range match {
			if mv.Labels[l.Key] != l.Value {
				continue next
			}
		}
		sum += mv.Value
	}
	return sum
}

// appendNodeMetrics exports reg tagging every value with tags.
func appendNodeMetrics(dst []obs.MetricValue, reg *obs.Registry, tags ...obs.Label) []obs.MetricValue {
	for _, mv := range reg.Export() {
		if mv.Labels == nil {
			mv.Labels = make(map[string]string, len(tags))
		}
		for _, l := range tags {
			mv.Labels[l.Key] = l.Value
		}
		dst = append(dst, mv)
	}
	return dst
}

// isolater is the optional fault-injection surface of the transport
// (implemented by transport/faulty). Crash and Restart use it so a
// crashed node's traffic disappears like a dead machine's instead of
// surfacing as addressing errors at every sender.
type isolater interface {
	Isolate(partition.NodeID)
	Restore(partition.NodeID)
}

// Cluster is a wired cluster — the paper's four node kinds on one
// network — whose phases are driven explicitly. All methods are meant to
// be called from one goroutine, in script order; the cluster's nodes run
// concurrently underneath.
type Cluster struct {
	cfg   Config
	clock vclock.Clock
	net   transport.Network
	// ownNet records whether Close should close the transport.
	ownNet bool
	master *partition.Map
	app    *AppServer
	coord  *coordinator.Coordinator
	host   *SplitHost
	// feeder paces the synthetic workload into host; nil in a streaming
	// cluster, whose caller routes its own tuples.
	feeder *Feeder
	// instr, when not nil, is the network as where each node's transport
	// metrics are registered before it attaches.
	instr transport.Instrumentable

	engines map[partition.NodeID]*engine.Engine
	// nodes is the live membership list: the static Engines config plus
	// every dynamically joined engine, in join order. Drain, cleanup,
	// and Finish iterate it instead of the static config so late
	// joiners' results, spans, and metrics are not lost.
	nodes   []partition.NodeID
	crashed map[partition.NodeID]bool
	// retired keeps every crashed engine life, in crash order, so Finish
	// can still export its spans and metrics (its volatile state is gone,
	// as on a real dead machine).
	retired []*engine.Engine

	errMu sync.Mutex
	errs  []error

	cleanup    CleanupSummary
	ranCleanup bool
	started    bool
	stopped    bool
	finished   bool
}

// New wires the experiment cluster of cfg without starting it: the four
// node kinds, each node's transport metrics recorded into its registry
// (both built-in transports support that), and the workload Feed paces.
func New(cfg Config) (*Cluster, error) {
	gen, err := workload.New(cfg.Workload)
	if err != nil {
		return nil, err
	}
	c, err := wire(cfg, true)
	if err != nil {
		return nil, err
	}
	c.feeder = NewFeeder(c.clock, gen, c.host.Router())
	return c, nil
}

// NewStreaming wires the same cluster for a caller that routes its own
// tuples through Router: no workload (Feed fails) and no transport
// metrics — nobody reads them, and they cost five labelled registry
// lookups a message.
func NewStreaming(cfg Config) (*Cluster, error) { return wire(cfg, false) }

// wire builds the cluster's nodes on its network.
func wire(cfg Config, instrument bool) (*Cluster, error) {
	if cfg.JoinParallelism > 1 {
		return nil, fmt.Errorf("cluster: JoinParallelism %d: an engine's join is serial; add engines instead", cfg.JoinParallelism)
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 600
	}
	c := &Cluster{
		cfg:     cfg,
		clock:   vclock.NewScaled(cfg.Scale),
		net:     cfg.Network,
		engines: make(map[partition.NodeID]*engine.Engine, len(cfg.Engines)),
		nodes:   append([]partition.NodeID(nil), cfg.Engines...),
		crashed: make(map[partition.NodeID]bool),
	}
	if c.net == nil {
		c.net = transport.NewInproc()
		c.ownNet = true
	}
	if instrument {
		c.instr, _ = c.net.(transport.Instrumentable)
	}
	if err := c.build(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// build creates and attaches the nodes: application server, coordinator
// over the initial map, engines, split host.
func (c *Cluster) build() (err error) {
	if c.master, err = c.cfg.Map(); err != nil {
		return err
	}
	c.app = NewAppServer(c.clock, c.cfg.Materialize, c.cfg.OnResult)
	if err := c.app.Attach(c.net); err != nil {
		return err
	}
	cc := c.cfg.CoordinatorConfig(c.master)
	cc.OnError = c.recordErr
	if c.coord, err = coordinator.New(cc, c.clock); err != nil {
		return err
	}
	if c.instr != nil {
		c.instr.Instrument(CoordinatorNode, transport.NewMetrics(c.coord.Registry(), "coordinator"))
	}
	if err := c.coord.Attach(c.net); err != nil {
		return err
	}
	for _, node := range c.cfg.Engines {
		if err := c.addEngine(node, false); err != nil {
			return err
		}
	}
	c.host, err = NewSplitHost(c.net, c.clock, c.master)
	return err
}

// addEngine builds and attaches one engine node from the cluster
// config: New for the static engines, Restart to rebuild a crashed one
// over the same store directories, Join to admit a new one at run time
// (dynamic makes it introduce itself with JoinRequest instead of Hello).
func (c *Cluster) addEngine(node partition.NodeID, dynamic bool) error {
	var dir string
	if c.cfg.StoreDir != "" {
		dir = filepath.Join(c.cfg.StoreDir, string(node))
	}
	store, standby, err := NodeStores(dir)
	if err != nil {
		return err
	}
	ec := c.cfg.EngineConfig(node, store, standby)
	ec.DynamicJoin = dynamic
	e, err := engine.New(ec, c.clock)
	if err != nil {
		return err
	}
	if c.instr != nil {
		c.instr.Instrument(node, transport.NewMetrics(e.Registry(), "engine"))
	}
	if err := e.Attach(c.net); err != nil {
		return err
	}
	c.engines[node] = e
	return nil
}

func (c *Cluster) recordErr(err error) {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	c.errs = append(c.errs, err)
}

// Errors returns the errors collected from the coordinator's error
// path so far.
func (c *Cluster) Errors() []error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	out := make([]error, len(c.errs))
	copy(out, c.errs)
	return out
}

// Clock exposes the cluster's virtual clock (for script pacing).
func (c *Cluster) Clock() vclock.Clock { return c.clock }

// Router exposes the split host's router, through which a streaming
// cluster's caller routes and flushes its tuples.
func (c *Cluster) Router() *split.Router { return c.host.Router() }

// AppServer, Coordinator and Engine (the current instance of that node,
// nil if unknown) expose the nodes for reading counters; an engine's
// operator state only once drained.
func (c *Cluster) AppServer() *AppServer                       { return c.app }
func (c *Cluster) Coordinator() *coordinator.Coordinator       { return c.coord }
func (c *Cluster) Engine(node partition.NodeID) *engine.Engine { return c.engines[node] }

// EngineAlive reports the coordinator watchdog's view of node.
func (c *Cluster) EngineAlive(node partition.NodeID) bool { return c.coord.EngineAlive(node) }

// PendingResumes reports how many revival remaps the coordinator still
// has in flight (see coordinator.PendingResumes).
func (c *Cluster) PendingResumes() int { return c.coord.PendingResumes() }

// PartitionsPaused reports how many partitions the split host is
// currently buffering. The watchdog's EngineAlive flag flips before the
// Pause reaches the split host, so crash scripts that must not feed a
// dead engine's partitions await this too.
func (c *Cluster) PartitionsPaused() int { return c.host.Router().PausedPartitions() }

// Join builds, attaches, and starts a new engine at run time: it
// introduces itself to the coordinator with JoinRequest and, once its
// first stats report lands, the rebalance planner sheds state onto it.
// The returned engine is part of the cluster's drain/cleanup/finish
// lifecycle like any static engine.
func (c *Cluster) Join(node partition.NodeID) error {
	if !c.started {
		return fmt.Errorf("cluster: join before start")
	}
	if _, ok := c.engines[node]; ok {
		return fmt.Errorf("cluster: engine %s already exists", node)
	}
	if err := c.addEngine(node, true); err != nil {
		return err
	}
	c.nodes = append(c.nodes, node)
	return c.engines[node].Start()
}

// Leave asks an engine to depart gracefully: the coordinator drains its
// partition groups onto the remaining engines and releases it. Await
// EngineLeft to know when the departure completed. The engine keeps
// running (it owns nothing and is excluded from adaptation) so Finish
// can still collect its series and spans.
func (c *Cluster) Leave(node partition.NodeID) error {
	e := c.engines[node]
	if e == nil {
		return fmt.Errorf("cluster: unknown engine %s", node)
	}
	if c.crashed[node] {
		return fmt.Errorf("cluster: engine %s crashed", node)
	}
	e.Leave()
	return nil
}

// EngineLeft reports whether node's graceful departure was acknowledged
// by the coordinator (it owns no partitions anymore).
func (c *Cluster) EngineLeft(node partition.NodeID) bool {
	e := c.engines[node]
	return e != nil && e.Left()
}

// Membership reports the coordinator's view of every engine's
// membership state (joining, active, draining, left, dead).
func (c *Cluster) Membership() map[partition.NodeID]string { return c.coord.Membership() }

// Owned reports how many partition groups the shared map currently
// assigns to node. Membership scripts await this to know a joiner
// received state or a leaver drained.
func (c *Cluster) Owned(node partition.NodeID) int { return len(c.master.OwnedBy(node)) }

// Promotions / Demotions report completed follower promotions and
// stale-copy demotions at the coordinator.
func (c *Cluster) Promotions() int { return c.coord.Promotions() }

// Demotions reports completed demotions (see Promotions).
func (c *Cluster) Demotions() int { return c.coord.Demotions() }

// PendingDemotes reports demotions queued or in flight — nonzero
// between a promotion's map commit and the revived victim's DemoteAck.
func (c *Cluster) PendingDemotes() int { return c.coord.PendingDemotes() }

// ReplicationSettled reports whether every engine runs the current
// replica map with zero replication lag — the fence chaos scenarios
// await before inducing a failover they expect to be lossless.
func (c *Cluster) ReplicationSettled() bool { return c.coord.ReplicationSettled() }

// ReplicationLagTotal sums the per-group replication lag last reported
// by the engines, in bytes.
func (c *Cluster) ReplicationLagTotal() int64 {
	var total int64
	for _, lag := range c.coord.ReplicationLag() {
		total += lag
	}
	return total
}

// Start launches the coordinator and all engines.
func (c *Cluster) Start() error {
	if c.started {
		return fmt.Errorf("cluster: already started")
	}
	c.started = true
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

// Feed paces the synthetic streams for a further virtual duration,
// continuing the schedule where the previous Feed ended.
func (c *Cluster) Feed(d time.Duration) error {
	if c.feeder == nil {
		return fmt.Errorf("cluster: a streaming cluster has no workload to feed")
	}
	return c.feeder.Feed(d)
}

// Idle lets the cluster run without input for a virtual duration (e.g.
// waiting out the heartbeat watchdog after a crash).
func (c *Cluster) Idle(d time.Duration) { c.clock.Sleep(d) }

// Await polls cond on the virtual clock until it holds, bounded by a
// wall-clock guard. It reports whether cond held in time.
func (c *Cluster) Await(watchdog time.Duration, cond func() bool) bool {
	guard := vclock.WallTimeout(watchdog)
	for !cond() {
		select {
		case <-guard:
			return false
		default:
		}
		c.clock.Sleep(50 * time.Millisecond)
	}
	return true
}

// Quiesce fences the coordinator: no further adaptations start, and any
// in-flight relocation has completed or aborted.
func (c *Cluster) Quiesce() error { return c.host.Quiesce() }

// Drain fences the data path through every live engine and, behind
// each engine's results, the application server. Crashed engines are
// skipped: their unprocessed input is gone, which is exactly what crash
// tests measure.
func (c *Cluster) Drain() error { return c.host.Drain(c.live()) }

// live lists the engines that have not crashed, in membership order.
func (c *Cluster) live() []partition.NodeID {
	live := make([]partition.NodeID, 0, len(c.nodes))
	for _, node := range c.nodes {
		if !c.crashed[node] {
			live = append(live, node)
		}
	}
	return live
}

// Crash kills an engine without any shutdown protocol: its endpoint
// closes, its volatile state is lost, and (when the transport supports
// isolation) traffic to and from it blackholes like a dead machine's.
func (c *Cluster) Crash(node partition.NodeID) error {
	e := c.engines[node]
	if e == nil {
		return fmt.Errorf("cluster: unknown engine %s", node)
	}
	if c.crashed[node] {
		return fmt.Errorf("cluster: engine %s already crashed", node)
	}
	if iso, ok := c.net.(isolater); ok {
		iso.Isolate(node)
	}
	e.Crash()
	c.crashed[node] = true
	c.retired = append(c.retired, e)
	return nil
}

// Restart brings a crashed engine back as a new, empty life under the
// same name, over its store directories. Its Hello triggers the
// coordinator's revival path: groups failed over meanwhile are demoted
// away (with the stale segments the reopened store still holds), what
// it still owns is remapped (and thereby unpaused), and under Replicate
// it is seeded again as a follower.
func (c *Cluster) Restart(node partition.NodeID) error {
	if !c.crashed[node] {
		return fmt.Errorf("cluster: engine %s is not crashed", node)
	}
	if err := c.addEngine(node, false); err != nil {
		return err
	}
	if iso, ok := c.net.(isolater); ok {
		iso.Restore(node)
	}
	delete(c.crashed, node)
	return c.engines[node].Start()
}

// RunCleanup executes the disk phase on every live engine.
func (c *Cluster) RunCleanup() error {
	summary, err := c.app.RunCleanup(c.live())
	if err != nil {
		return err
	}
	c.cleanup = summary
	c.ranCleanup = true
	return nil
}

// Finish stops all nodes and assembles the Result. Call exactly once,
// after the final fence (Quiesce + Drain) and optional RunCleanup.
func (c *Cluster) Finish() (*Result, error) {
	if c.finished {
		return nil, fmt.Errorf("cluster: already finished")
	}
	c.finished = true

	c.stop()
	res := &Result{
		Throughput:   c.app.throughput,
		Memory:       make(map[partition.NodeID]*stats.Series, len(c.engines)),
		LocalSpills:  make(map[partition.NodeID]int, len(c.nodes)),
		SpilledBytes: make(map[partition.NodeID]int64, len(c.nodes)),
	}
	if c.feeder != nil {
		res.Generated = c.feeder.Generated()
	}
	if c.ranCleanup {
		res.Cleanup = c.cleanup
	}
	// Every engine life: the crashed ones in crash order, then the live
	// ones. A crashed engine's volatile state is gone; its registry and
	// spans are not.
	lives := make(map[partition.NodeID]int, len(c.nodes))
	export := func(e *engine.Engine) {
		lives[e.Node()]++
		res.Spans = append(res.Spans, e.Tracer().Spans()...)
		res.Metrics = appendNodeMetrics(res.Metrics, e.Registry(),
			obs.L("node", string(e.Node())), obs.L("life", strconv.Itoa(lives[e.Node()])))
	}
	for _, e := range c.retired {
		export(e)
	}
	res.Spans = append(res.Spans, c.coord.Tracer().Spans()...)
	res.Metrics = appendNodeMetrics(res.Metrics, c.coord.Registry(), obs.L("node", string(CoordinatorNode)))
	for _, node := range c.live() {
		e := c.engines[node]
		export(e)
		res.Memory[node] = c.coord.MemSeries(node)
		res.RuntimeOutput += e.Op().Output()
	}
	res.Relocations = int(res.Counter("distq_coordinator_relocations_total"))
	res.AbortedRelocations = int(res.Counter("distq_coordinator_relocations_aborted_total"))
	res.UnresolvedRelocations = int(res.Counter("distq_coordinator_reloc_unresolved_total"))
	res.Promotions = int(res.Counter("distq_coordinator_promotions_total"))
	for _, node := range c.nodes {
		n := obs.L("node", string(node))
		res.LocalSpills[node] = int(res.Counter("distq_engine_spills_total", n))
		res.SpilledBytes[node] = int64(res.Counter("distq_engine_spill_bytes_total", n))
	}
	sort.SliceStable(res.Spans, func(i, j int) bool { return res.Spans[i].Start < res.Spans[j].Start })
	res.BufferedPeak = c.host.Router().BufferedPeak()
	if c.cfg.Materialize {
		res.RuntimeSet = c.app.runtimeSet
		res.CleanupSet = c.app.cleanupSet
		res.Duplicates = c.app.Duplicates()
	}
	return res, nil
}

// stop halts every node's timers and waits until their handlers have
// seen it, so the state reads that follow are deterministic instead of
// racing a sleep. Stop is processed by each node's serial handler;
// crashed engines' Done fences are already closed.
func (c *Cluster) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	var fences []<-chan struct{}
	if c.coord != nil {
		c.coord.Stop()
		fences = append(fences, c.coord.Done())
	}
	for _, e := range c.engines {
		e.Stop()
		fences = append(fences, e.Done())
	}
	awaitStopped(5*time.Second, fences...)
}

// Close stops the nodes and releases the transport when the cluster
// owns it.
func (c *Cluster) Close() error {
	c.stop()
	if c.ownNet {
		return c.net.Close()
	}
	return nil
}

// Run executes one experiment end to end.
func Run(cfg Config) (*Result, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("cluster: non-positive duration")
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return nil, err
	}

	// Run-time phase.
	if err := c.Feed(cfg.Duration); err != nil {
		return nil, err
	}

	// Fence: quiesce the coordinator, then drain every engine through
	// the generator's data path (FIFO per pair ⇒ all data processed).
	if err := c.Quiesce(); err != nil {
		return nil, err
	}
	if err := c.Drain(); err != nil {
		return nil, err
	}

	// Cleanup phase.
	if cfg.RunCleanup {
		if err := c.RunCleanup(); err != nil {
			return nil, err
		}
	}
	return c.Finish()
}

// awaitStopped waits for each fence channel to close, bounded overall
// by a wall-clock watchdog (the fences are event-driven; the watchdog
// only guards against a wedged handler). It reports whether every fence
// closed in time.
func awaitStopped(watchdog time.Duration, fences ...<-chan struct{}) bool {
	guard := vclock.WallTimeout(watchdog)
	for _, ch := range fences {
		select {
		case <-ch:
		case <-guard:
			return false
		}
	}
	return true
}
