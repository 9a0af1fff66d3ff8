// Package engine implements a query engine (QE): one cluster machine
// executing an instance of the partitioned m-way join, together with its
// local adaptation controller (paper §2). The controller owns the
// fine-grained decisions: which partition groups to spill on local memory
// overflow (ss_timer), which groups to hand over when the coordinator
// requests a relocation (cptv), and the engine side of the 8-step
// relocation protocol.
//
// The engine is event-driven: every input — data batches, control
// messages, and its own timers (self-addressed Tick messages) — arrives
// through the transport's serial handler, so the engine never needs
// internal locking, mirroring a single query processor thread per machine.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cleanup"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// resultFlushThreshold bounds how many materialized results are encoded
// into the pending payload before a ResultData message is pushed to the
// application server.
const resultFlushThreshold = 4096

// Config parameterizes a query engine.
type Config struct {
	Node        partition.NodeID
	Coordinator partition.NodeID
	AppServer   partition.NodeID
	// Inputs is the number of join inputs (m).
	Inputs int
	// Partitions is the partition function's modulus.
	Partitions int
	// Spill holds the local overflow threshold and k% fraction.
	Spill core.SpillConfig
	// LocalSpill enables the ss_timer overflow check. Disabled for the
	// paper's All-Mem baseline.
	LocalSpill bool
	// Policy selects spill victims (default: less-productive).
	Policy core.Policy
	// Store persists spilled segments (default: in-memory).
	Store spill.Store
	// StandbyStore persists the disk tier of replicated standby state:
	// when a primary spills a replicated group, this engine (as the
	// group's follower) demotes the matching standby fraction here
	// instead of holding it in memory. Kept separate from Store because
	// cleanup runs over every Store group — standby segments in it would
	// duplicate results the primary already emitted. Default: in-memory.
	StandbyStore spill.Store
	// Materialize makes the engine ship full results to the application
	// server instead of counts.
	Materialize bool
	// EnumerateResults makes the engine enumerate every result tuple
	// without shipping it — the realistic cost model (results are
	// produced and handed to a local consumer) without drowning the
	// application server, used by the throughput experiments whose
	// cleanup durations the paper reports.
	EnumerateResults bool
	// StatsInterval is the sr_timer period (virtual).
	StatsInterval time.Duration
	// SpillCheckInterval is the ss_timer period (virtual).
	SpillCheckInterval time.Duration
	// PreFilter, when set, is a stateless operator chain (select/
	// project) applied to every arriving tuple before it enters the
	// join's state — the paper's stateless operators sitting in front
	// of the partitioned operator.
	PreFilter operator.Operator
	// Window, when positive, runs the join with a sliding time window
	// (virtual): arriving tuples only match stored tuples within Window
	// of their timestamp, and expired state is purged on every stats
	// tick — the paper's infinite-streams-with-finite-windows case.
	Window time.Duration
	// SmoothingAlpha, when positive, switches the local controller to
	// the paper's amortized productivity model (§2): an exponentially
	// weighted moving average over per-period Δoutput/Δbytes, updated on
	// every sr_timer expiry, drives victim and mover selection instead
	// of the lifetime ratio. Ignored when an explicit Policy is set for
	// spills (the movers still use the smoothed scores).
	SmoothingAlpha float64
	// GroupMetrics, when positive, exports per-group tracker statistics
	// (resident bytes, lifetime bytes, output, productivity rank) as
	// labeled gauges for the top GroupMetrics most productive groups on
	// every sr_timer. Off by default: per-group series are for targeted
	// diagnosis, not always-on fleets.
	GroupMetrics int
	// DynamicJoin makes the engine introduce itself with a JoinRequest
	// (re-sent on every stats tick until the coordinator's JoinAck
	// arrives) instead of the informational Hello: the engine was not in
	// the coordinator's static configuration and asks to be admitted
	// into the running cluster.
	DynamicJoin bool
	// Addr is the engine's advertised transport address, carried on the
	// JoinRequest so the coordinator can extend directory-based
	// transports (TCP) and disseminate it to the split host and peers
	// via MemberAddr, and sent ahead of every Drain passed on to the
	// application server, which answers engines but is told of none.
	// Leave empty where every node shares one network (in-proc, or one
	// TCP instance): no directory is missing anything.
	Addr string
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Inputs < 2 {
		return out, fmt.Errorf("engine %s: need at least 2 join inputs, got %d", out.Node, out.Inputs)
	}
	if out.Partitions < 1 {
		return out, fmt.Errorf("engine %s: need at least 1 partition, got %d", out.Node, out.Partitions)
	}
	if out.Policy == nil {
		out.Policy = core.LessProductivePolicy{}
	}
	if out.Store == nil {
		out.Store = spill.NewMemStore()
	}
	if out.StandbyStore == nil {
		out.StandbyStore = spill.NewMemStore()
	}
	if out.StatsInterval <= 0 {
		out.StatsInterval = 5 * time.Second
	}
	if out.SpillCheckInterval <= 0 {
		out.SpillCheckInterval = 2 * time.Second
	}
	return out, nil
}

// Engine is one query engine instance. All methods except Start/Stop are
// invoked from the transport handler goroutine.
type Engine struct {
	cfg   Config
	clock vclock.Clock
	ep    transport.Endpoint
	net   transport.Network
	op    *join.Operator
	// pf is the partition function, shared with the operator: the
	// replication data-path hook needs each tuple's group ID.
	pf partition.Func
	// repl is the replication controller (primary and follower sides).
	// Always present — whether it does anything is decided by the
	// coordinator's ReplicaMap broadcasts, not engine configuration.
	repl *replicator
	mgr  *spill.Manager
	// ledger answers the coordinator's adaptation steps (ledger.go).
	ledger ledger

	tracker *core.ProductivityTracker

	reg    *obs.Registry
	tracer *obs.Tracer
	log    *obs.Logger
	// gaugedGroups tracks which groups currently carry per-group gauges
	// so series of departed (relocated, purged) groups are zeroed.
	gaugedGroups map[partition.ID]bool

	// drainFrom remembers who asked for each Drain this engine has passed
	// on to the application server, by token, until its ack comes back.
	drainFrom map[uint64]partition.NodeID
	// joined flips once the coordinator's JoinAck admits a DynamicJoin
	// engine, leaving on Leave, leftAck on LeaveAck: the stats tick
	// re-sends what is unanswered. Atomics: external callers use them.
	joined  atomic.Bool
	leaving atomic.Bool
	leftAck atomic.Bool

	// result accounting. reportedOutput is the count already delivered
	// to the application server; it advances only after a successful
	// send, so a transient send failure retries the delta on the next
	// sr_timer instead of dropping it.
	reportedOutput uint64
	// resultPayload holds pending materialized results, already encoded:
	// emit hands the engine a Result whose Seqs is the join core's scratch
	// buffer, so it must be consumed (encoded) inside the callback rather
	// than retained. resultCount tracks how many results it holds.
	resultPayload []byte
	resultCount   int
	resultPhase   proto.Phase
	// cleanupDone is this engine's cleanup report once it has run: a
	// repeated StartCleanup is answered with it instead of a second run.
	cleanupDone *proto.CleanupDone

	// statsDue and spillDue are the deadlines of the armed sr_timer and
	// ss_timer ticks; each self-sent tick arms the next (onTick).
	statsDue, spillDue vclock.Time
	stopped            bool
	// crashed simulates an abrupt machine failure: the handler discards
	// everything still queued. Set from outside the handler goroutine.
	crashed atomic.Bool
	// done closes when the serial handler has processed Stop (or the
	// engine crashed), fencing post-run state reads without wall-clock
	// sleeps.
	done     chan struct{}
	doneOnce sync.Once

	// lastReport is the most recent statistics snapshot, readable from
	// other goroutines (monitoring endpoints).
	lastReport atomic.Pointer[proto.StatsReport]
}

// New builds an engine; Attach must be called before Start. It rejects
// configurations the join cannot run (fewer than 2 inputs or no
// partitions) instead of panicking deep inside the partition function.
func New(cfg Config, clock vclock.Clock) (*Engine, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       c,
		clock:     clock,
		ledger:    ledger{arrived: make(map[partition.ID]uint64)},
		reg:       obs.NewRegistry(),
		tracer:    obs.NewTracer(0),
		log:       obs.NewLogger(obs.LoggerConfig{Node: string(c.Node), Kind: "engine", Now: clock.Now}),
		drainFrom: make(map[uint64]partition.NodeID),
		done:      make(chan struct{}),
	}
	e.pf = partition.NewFunc(c.Partitions)
	e.repl = newReplicator(e)
	e.reg.Help("distq_engine_spills_total", "spill cycles, by kind (local|forced)")
	e.reg.Help("distq_engine_spill_bytes_total", "bytes moved to disk by spills, by kind")
	e.reg.Help("distq_engine_mem_bytes", "resident state size at the last sr_timer")
	e.reg.Help("distq_engine_groups", "resident partition groups at the last sr_timer")
	e.reg.Help("distq_engine_disk_segments", "disk segments in the store at the last sr_timer")
	e.reg.Help("distq_engine_output_results", "cumulative join results produced")
	e.reg.Help("distq_engine_relocations_out_total", "state transfers shipped to another engine")
	e.reg.Help("distq_engine_relocations_in_total", "state transfers installed from another engine")
	e.reg.Help("distq_engine_cleanup_results_total", "missed results produced during cleanup")
	e.reg.Help("distq_engine_group_resident_bytes", "resident state size of one partition group (GroupMetrics only)")
	e.reg.Help("distq_engine_group_lifetime_bytes", "lifetime bytes absorbed by one partition group (GroupMetrics only)")
	e.reg.Help("distq_engine_group_output_results", "cumulative results produced by one partition group (GroupMetrics only)")
	e.reg.Help("distq_engine_group_productivity_rank", "productivity rank of one partition group, 1 = most productive (GroupMetrics only)")
	e.reg.Help("distq_engine_deltas_out_total", "replication state deltas sent to followers (including retransmits)")
	e.reg.Help("distq_engine_deltas_in_total", "replication state deltas applied from primaries")
	e.reg.Help("distq_engine_standby_bytes", "warm follower-copy state held outside the operator")
	e.reg.Help("distq_engine_standby_segment_bytes", "standby state re-spilled to the local standby store on primary spill markers")
	e.reg.Help("distq_engine_promotions_total", "follower promotions installed on this engine")
	e.reg.Help("distq_engine_demotions_total", "stale primary copies dropped after a failover")
	if c.SmoothingAlpha > 0 {
		e.tracker = core.NewProductivityTracker(c.SmoothingAlpha)
		if cfg.Policy == nil {
			e.cfg.Policy = core.SmoothedLessProductive{T: e.tracker}
			c = e.cfg
		}
	}
	var emit join.EmitFunc
	switch {
	case c.Materialize:
		emit = func(r tuple.Result) { e.bufferResult(r) }
	case c.EnumerateResults:
		emit = func(tuple.Result) {}
	}
	if c.Window > 0 {
		e.op = join.NewWindowed(c.Inputs, e.pf, c.Window, emit)
	} else {
		e.op = join.New(c.Inputs, e.pf, emit)
	}
	e.mgr = spill.NewManager(e.op, c.Store, c.Policy)
	// A reopened store holds segments of an earlier life. Their groups
	// resume in the empty generation after the last stored one, watermark
	// included (Seal on the segment's header; no segment is read in full);
	// numbered from 0 again, the next spill would replace a surviving
	// segment. A group this engine lost to a failover meanwhile is dropped,
	// tiers and all, by the Demote that follows its rejoin.
	for _, g := range c.Store.Groups() {
		last, err := c.Store.Last(g)
		if err == nil {
			err = e.op.Merge(last.Seal(last.Gen))
		}
		if err != nil {
			return nil, fmt.Errorf("engine %s: resume stored group %d: %w", c.Node, g, err)
		}
	}
	// A reopened standby store may hold segments from a previous life;
	// the coordinator re-seeds followers from scratch after a restart,
	// and stale segments would duplicate the re-seeded ones.
	for _, g := range c.StandbyStore.Groups() {
		if _, err := c.StandbyStore.Remove(g); err != nil {
			return nil, fmt.Errorf("engine %s: clear stale standby segments: %w", c.Node, err)
		}
	}
	return e, nil
}

// Attach joins the engine to the network; data can arrive as soon as
// the handler is attached.
func (e *Engine) Attach(net transport.Network) error {
	ep, err := net.Attach(e.cfg.Node, e.Handle)
	if err != nil {
		return err
	}
	e.ep = ep
	e.net = net
	return nil
}

// Start introduces the engine to the coordinator — the informational
// Hello, or a DynamicJoin's JoinRequest — and arms its timers. Neither is
// retried here: every StatsReport is a heartbeat, and the stats tick
// re-sends the JoinRequest until JoinAck.
func (e *Engine) Start() error {
	if e.ep == nil {
		return fmt.Errorf("engine %s: not attached", e.cfg.Node)
	}
	var hello proto.Message = proto.Hello{Node: e.cfg.Node, Kind: proto.KindEngine}
	if e.cfg.DynamicJoin {
		hello = proto.JoinRequest{Node: e.cfg.Node, Addr: e.cfg.Addr}
	}
	if err := e.ep.Send(e.cfg.Coordinator, hello); err != nil {
		e.log.Warn("coordinator_unreachable", obs.FErr(err))
	}
	now := e.clock.Now()
	e.statsDue, e.spillDue = now, now
	e.arm(proto.TickStats, &e.statsDue, e.cfg.StatsInterval)
	if e.cfg.LocalSpill {
		e.arm(proto.TickSpill, &e.spillDue, e.cfg.SpillCheckInterval)
	}
	return nil
}

// Leave announces a graceful departure: the next stats report carries a
// Leave, and every report after it until LeaveAck; the coordinator drains
// every partition group this engine owns onto the remaining engines, then
// acknowledges (observable via Left). Callable from any goroutine.
func (e *Engine) Leave() { e.leaving.Store(true) }

// unacknowledged re-sends the membership requests the coordinator has
// yet to answer: a DynamicJoin's JoinRequest, a Leave.
func (e *Engine) unacknowledged() error {
	var err error
	if e.cfg.DynamicJoin && !e.joined.Load() {
		err = e.ep.Send(e.cfg.Coordinator, proto.JoinRequest{Node: e.cfg.Node, Addr: e.cfg.Addr})
	}
	if e.leaving.Load() && !e.leftAck.Load() {
		err = errors.Join(err, e.ep.Send(e.cfg.Coordinator, proto.Leave{Node: e.cfg.Node}))
	}
	return err
}

// Left reports whether the coordinator has released this engine (its
// Leave was acknowledged and it owns no partitions).
func (e *Engine) Left() bool { return e.leftAck.Load() }

// arm moves *due to the next deadline of a period-long timer and asks
// the clock for the kind tick then, sent to this engine's own endpoint.
func (e *Engine) arm(kind string, due *vclock.Time, period time.Duration) {
	now := e.clock.Now()
	*due = vclock.Next(*due, period, now)
	// The callback holds the endpoint, not e: a stopped engine's state
	// must not live on until its last timer fires.
	ep, self := e.ep, e.cfg.Node
	e.clock.AfterFunc(due.Sub(now), func() {
		//distqlint:allow uncheckederr: self-addressed timer; a closed own endpoint means the engine stopped or crashed, and ticks end with it
		ep.Send(self, proto.Tick{Kind: kind})
	})
}

// Node is the engine's node name; every life of a node shares it.
func (e *Engine) Node() partition.NodeID { return e.cfg.Node }

// Registry exposes the engine's metrics registry (monitoring endpoints,
// transport instrumentation).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Tracer exposes the engine's span tracer (spill, cleanup, and the
// engine-side halves of relocations).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Logger exposes the engine's structured logger (level control, output
// mirroring, the monitor's /logs endpoint).
func (e *Engine) Logger() *obs.Logger { return e.log }

// Handle is the engine's transport handler.
func (e *Engine) Handle(from partition.NodeID, msg proto.Message) {
	if e.stopped || e.crashed.Load() {
		return
	}
	var err error
	switch m := msg.(type) {
	case proto.Data:
		err = e.onData(m)
	case proto.PauseMarker:
		err = e.onPauseMarker(m)
	case proto.Tick:
		err = e.onTick(from, m)
	case proto.CptV:
		err = e.onCptV(m)
	case proto.SendStates:
		err = e.onSendStates(m)
	case proto.StateTransfer:
		err = e.onStateTransfer(m)
	case proto.RelocAbort:
		err = e.onRelocAbort(m)
	case proto.ForceSpill:
		err = e.onForceSpill(m)
	case proto.Drain:
		err = e.onDrain(from, m)
	case proto.DrainAck:
		err = e.onDrainAck(m)
	case proto.StartCleanup:
		err = e.onCleanup(from)
	case proto.JoinAck:
		err = e.onJoinAck(m)
	case proto.MemberAddr:
		// Dynamically joined peer: extend a directory-based transport so
		// relocations and replica deltas toward it can route.
		transport.AddNode(e.net, m.Node, m.Addr)
	case proto.LeaveAck:
		e.leftAck.Store(true)
	case proto.ReplicaMap:
		err = e.repl.applyMap(m)
	case proto.StateDelta:
		err = e.repl.onDelta(m)
	case proto.DeltaAck:
		e.repl.onAck(m)
	case proto.Promote:
		err = e.onPromote(m)
	case proto.Demote:
		err = e.onDemote(m)
	case proto.Stop:
		e.shutdown()
	default:
		err = fmt.Errorf("unexpected message %T from %s", msg, from)
	}
	if err != nil {
		e.log.Error("handler_error", obs.FErr(err))
	}
}

// onPauseMarker acknowledges the drain fence (protocol step 4): the
// transport is FIFO, so the marker's arrival proves every earlier tuple
// for the moving partitions was processed. The trace context the split
// host forwarded from the coordinator's Pause parents the fence span under
// the relocation's trace.
func (e *Engine) onPauseMarker(m proto.PauseMarker) error {
	span := e.tracer.StartChild(obs.SpanRelocationMarker, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", strconv.FormatUint(m.Epoch, 10))
	if err := e.ep.Send(e.cfg.Coordinator, proto.MarkerAck{Epoch: m.Epoch, Node: e.cfg.Node}); err != nil {
		span.Abort(e.clock.Now(), err.Error())
		return err
	}
	span.End(e.clock.Now())
	return nil
}

// onData joins a batch straight off the wire: each tuple is a view into
// m.Payload (the transport's frame buffer, recycled when the handler
// returns), valid only for its turn of the loop. Everything that keeps a
// tuple copies it — the operator into its pages or log, the replication
// tap by re-encoding — so nothing here allocates per tuple or per batch:
// the tap finds the group's slot by one index and appends to the buffer
// the group keeps across ticks (replica.Slot.Cut). A malformed batch is
// rejected whole, before its first tuple is processed.
func (e *Engine) onData(m proto.Data) error {
	r, err := tuple.ReadBatch(m.Payload)
	if err != nil {
		return fmt.Errorf("decode batch: %w", err)
	}
	replicate := e.repl.primary
	var t tuple.Tuple
	for r.Next(&t) {
		if e.cfg.PreFilter != nil {
			var ok bool
			if t, ok = e.cfg.PreFilter.Apply(t); !ok {
				continue
			}
		}
		if replicate {
			// Replication taps the post-PreFilter stream: exactly what enters
			// the join's state is what a follower must be able to reproduce.
			e.repl.tap.Append(e.pf.Of(t.Key), &t)
		}
		if _, err := e.op.Process(t); err != nil {
			return err
		}
	}
	e.maybeFlushResults(false)
	return nil
}

// onTick runs a timer. A tick the engine sent itself arms the next one
// first; a tick from another node (a test, a harness) runs the timer's
// work once and leaves the period alone.
func (e *Engine) onTick(from partition.NodeID, m proto.Tick) error {
	self := from == e.cfg.Node
	switch m.Kind {
	case proto.TickStats:
		if self {
			e.arm(m.Kind, &e.statsDue, e.cfg.StatsInterval)
		}
		return errors.Join(e.unacknowledged(), e.reportStats())
	case proto.TickSpill:
		if self {
			e.arm(m.Kind, &e.spillDue, e.cfg.SpillCheckInterval)
		}
		// Algorithm 1, ss_timer_expired: spill only from normal mode;
		// in any adaptation mode, wait for the next timer expiry.
		if e.mode() != core.NormalMode || !e.cfg.LocalSpill {
			return nil
		}
		// A standby-heavy follower must shed its own operator state (the
		// standby itself only leaves memory on the primary's spill
		// markers, keeping segment boundaries aligned).
		e.spill(e.cfg.Spill.SpillAmount(e.memBytes()), "local", obs.TraceContext{})
		return nil
	default:
		return fmt.Errorf("unknown tick %q", m.Kind)
	}
}

// spill runs one spill cycle of the given kind, "local" (ss_timer) or
// "forced", and returns the bytes it moved to disk; a zero or negative
// amount runs none. The cycle is counted in distq_engine_spills_total
// and its bytes in distq_engine_spill_bytes_total, the engine's one
// record of its spills. A forced spill carries the coordinator's trace
// context so the engine-side span joins the forced-spill trace; local
// spills pass the zero context and trace standalone.
// A store write that fails is logged, not returned: its group stays
// resident (spill.Manager.Spill), the groups persisted before it stand
// and reach the followers, and the next cycle spills again.
func (e *Engine) spill(amount int64, kind string, trace obs.TraceContext) int64 {
	if amount <= 0 {
		return 0
	}
	span := e.tracer.StartChild(obs.SpanSpill, string(e.cfg.Node), e.clock.Now(), trace)
	span.SetAttr("kind", kind)
	span.SetAttr("requested_bytes", fmt.Sprintf("%d", amount))
	res, err := e.mgr.Spill(amount)
	// Tell followers: buffered appends of the spilled generation flush
	// ahead of a spill marker, so their standby demotes the same
	// fraction at the same generation boundary.
	e.repl.noteSpill(res.Groups)
	span.SetAttr("groups", fmt.Sprintf("%d", len(res.Groups)))
	span.SetAttr("spilled_bytes", fmt.Sprintf("%d", res.Bytes))
	if err != nil {
		e.log.Error("spill_error", obs.FErr(err))
		span.Abort(e.clock.Now(), err.Error())
	} else {
		span.End(e.clock.Now())
	}
	kl := obs.L("kind", kind)
	e.reg.Counter("distq_engine_spills_total", kl).Inc()
	e.reg.Counter("distq_engine_spill_bytes_total", kl).Add(float64(res.Bytes))
	return res.Bytes
}

func (e *Engine) reportStats() error {
	if e.cfg.Window > 0 {
		e.op.Expire(e.clock.Now())
	}
	if e.tracker != nil {
		e.tracker.Observe(e.op.Stats())
	}
	if err := e.repl.tick(); err != nil {
		// Seeding retries on the next tick; the report still goes out so
		// the coordinator keeps seeing (and charging) the group's lag.
		e.log.Error("replication_tick_error", obs.FErr(err))
	}
	var sizes map[partition.ID]int64
	sizeOf := func(id partition.ID) int64 {
		if sizes == nil {
			gs := e.op.Stats()
			sizes = make(map[partition.ID]int64, len(gs))
			for _, g := range gs {
				sizes[g.ID] = g.Size
			}
		}
		return sizes[id]
	}
	report := proto.StatsReport{
		Node:        e.cfg.Node,
		MemBytes:    e.memBytes(),
		Standby:     e.repl.standbyBytes,
		Groups:      e.op.Groups(),
		Output:      e.op.Output(),
		ReplLag:     e.repl.lag(sizeOf),
		ReplVersion: e.repl.version,
	}
	e.reg.Gauge("distq_engine_standby_bytes").Set(float64(e.repl.standbyBytes))
	e.reg.Gauge("distq_engine_standby_segment_bytes").Set(float64(e.cfg.StandbyStore.Bytes()))
	e.lastReport.Store(&report)
	e.reg.Gauge("distq_engine_mem_bytes").Set(float64(report.MemBytes))
	e.reg.Gauge("distq_engine_groups").Set(float64(report.Groups))
	e.reg.Gauge("distq_engine_disk_segments").Set(float64(e.cfg.Store.SegmentCount()))
	e.reg.Gauge("distq_engine_output_results").Set(float64(report.Output))
	if e.cfg.GroupMetrics > 0 {
		e.reportGroupMetrics()
	}
	if err := e.ep.Send(e.cfg.Coordinator, report); err != nil {
		return err
	}
	return e.reportResults()
}

// memBytes is what this engine holds in memory: the operator's resident
// state plus the memory tier of its standby images. The local spill
// check and the StatsReport both charge it — without the standby a
// follower over-reports headroom and the coordinator's
// M_query−M_cluster forced-spill arithmetic undercounts the cluster.
func (e *Engine) memBytes() int64 { return e.op.MemBytes() + e.repl.standbyBytes }

// reportGroupMetrics exports per-group tracker statistics as labeled
// gauges for the top Config.GroupMetrics most productive groups; gauges
// of groups that left the top set (relocated away, purged, outranked)
// are zeroed so departed series do not read as live state.
func (e *Engine) reportGroupMetrics() {
	gs := e.op.Stats()
	sort.SliceStable(gs, func(i, j int) bool { return gs[i].Productivity() > gs[j].Productivity() })
	seen := make(map[partition.ID]bool, e.cfg.GroupMetrics)
	for rank, g := range gs {
		if rank >= e.cfg.GroupMetrics {
			break
		}
		seen[g.ID] = true
		gl := obs.L("group", strconv.Itoa(int(g.ID)))
		e.reg.Gauge("distq_engine_group_resident_bytes", gl).Set(float64(g.Size))
		e.reg.Gauge("distq_engine_group_lifetime_bytes", gl).Set(float64(g.CumBytes))
		e.reg.Gauge("distq_engine_group_output_results", gl).Set(float64(g.Output))
		e.reg.Gauge("distq_engine_group_productivity_rank", gl).Set(float64(rank + 1))
	}
	for id := range e.gaugedGroups {
		if seen[id] {
			continue
		}
		gl := obs.L("group", strconv.Itoa(int(id)))
		e.reg.Gauge("distq_engine_group_resident_bytes", gl).Set(0)
		e.reg.Gauge("distq_engine_group_lifetime_bytes", gl).Set(0)
		e.reg.Gauge("distq_engine_group_output_results", gl).Set(0)
		e.reg.Gauge("distq_engine_group_productivity_rank", gl).Set(0)
	}
	e.gaugedGroups = seen
}

// StatsSnapshot returns the engine's most recent statistics report. It is
// safe for concurrent use (monitoring endpoints); a zero report means no
// sr_timer has fired yet.
func (e *Engine) StatsSnapshot() proto.StatsReport {
	if r := e.lastReport.Load(); r != nil {
		return *r
	}
	return proto.StatsReport{Node: e.cfg.Node}
}

func (e *Engine) reportResults() error {
	e.maybeFlushResults(true)
	output := e.op.Output()
	delta := output - e.reportedOutput
	if delta == 0 {
		return nil
	}
	if err := e.ep.Send(e.cfg.AppServer, proto.ResultCount{Node: e.cfg.Node, Delta: delta}); err != nil {
		// Leave the cursor where it was: the unreported delta rides the
		// next successful report instead of being dropped forever.
		return err
	}
	e.reportedOutput = output
	return nil
}

// onCptV implements the engine's cptv event: pick the most productive
// groups worth the requested amount (they stay active in the receiver's
// memory) and answer with the list, which puts the engine in relocate
// mode until the SendStates that takes them.
func (e *Engine) onCptV(m proto.CptV) error {
	if run, err := e.step(m.Epoch, fresh, chose); !run {
		return err
	}
	span := e.tracer.StartChild(obs.SpanRelocationCptV, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", strconv.FormatUint(m.Epoch, 10))
	span.SetAttr("amount_bytes", strconv.FormatInt(m.Amount, 10))
	score := core.GroupStats.Productivity
	if e.tracker != nil {
		score = e.tracker.Score
	}
	var parts []partition.ID
	if m.LowProd {
		parts = core.LeastProductive(e.op.Stats(), m.Amount, score)
	} else {
		parts = core.MostProductive(e.op.Stats(), m.Amount, score)
	}
	span.SetAttr("partitions", strconv.Itoa(len(parts)))
	span.End(e.clock.Now())
	return e.answer(chose, proto.PtV{Epoch: m.Epoch, Node: e.cfg.Node, Partitions: parts})
}

// onSendStates implements protocol step 5/6: take the moving groups out
// of this engine — each one's whole image, so the disk segments follow
// the group and cleanup stays local — and ship them to the receiver (a
// directed one, the drain of a leaver, skips the CptV/PtV round). The
// ledger keeps the images for a retry's re-ship or a RelocAbort; a failed
// extraction or send installs them back on the spot — an aborted
// relocation must never lose state.
func (e *Engine) onSendStates(m proto.SendStates) error {
	from := chose
	if m.Directed {
		from = fresh
	}
	if run, err := e.step(m.Epoch, from, shipped); !run {
		return err
	}
	span := e.tracer.StartChild(obs.SpanRelocationSend, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", fmt.Sprintf("%d", m.Epoch))
	span.SetAttr("receiver", string(m.Receiver))
	span.SetAttr("partitions", fmt.Sprintf("%d", len(m.Partitions)))
	// Forward the trace so the receiver's install span joins too.
	l := &e.ledger
	l.to, l.reply = m.Receiver, proto.StateTransfer{Epoch: m.Epoch, Trace: m.Trace}
	var memBytes, diskBytes int64
	var err error
	for _, id := range m.Partitions {
		var im *spill.Image
		im, err = e.release(id)
		if !im.Empty() {
			l.images = append(l.images, im)
			mem, disk := im.Bytes()
			memBytes, diskBytes = memBytes+mem, diskBytes+disk
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = e.ep.Send(m.Receiver, l.shipment())
	}
	if err != nil {
		span.Abort(e.clock.Now(), err.Error())
		l.stage, l.reply = aborted, nil
		if ierr := e.install(l.images); ierr != nil {
			return fmt.Errorf("reinstall after failed transfer: %v (transfer: %w)", ierr, err)
		}
		l.images = nil
		return fmt.Errorf("state transfer to %s failed, state reinstalled locally: %w", m.Receiver, err)
	}
	span.SetAttr("groups", fmt.Sprintf("%d", len(l.images)))
	span.SetAttr("mem_bytes", fmt.Sprintf("%d", memBytes))
	span.SetAttr("disk_bytes", fmt.Sprintf("%d", diskBytes))
	span.End(e.clock.Now())
	l.stage = shipped
	e.reg.Counter("distq_engine_relocations_out_total").Inc()
	return nil
}

// release ends this engine's ownership of group id: it stops replicating
// and tracking the group and takes its image out of operator and store.
func (e *Engine) release(id partition.ID) (*spill.Image, error) {
	e.repl.forgetOwned(id)
	if e.tracker != nil {
		e.tracker.Forget(id)
	}
	return spill.Take(e.op, e.cfg.Store, id)
}

// install moves group images into this engine's operator and store —
// a relocation's receiving end and its sender's rollback alike. Images
// that landed are emptied: a call after an error continues, not repeats.
func (e *Engine) install(images []*spill.Image) error {
	for _, im := range images {
		if err := im.Install(e.op, e.cfg.Store); err != nil {
			return err
		}
	}
	return nil
}

// onRelocAbort rolls this engine out of a relocation, from any stage of
// it: a sender reinstalls what it took, an engine that offered groups
// leaves relocate mode, a receiver that installed the transfer says so
// (the coordinator commits forward), and one that has seen nothing of the
// run still acknowledges. Past the abort, the run's late steps — a
// transfer above all — are dropped.
func (e *Engine) onRelocAbort(m proto.RelocAbort) error {
	l := &e.ledger
	switch {
	case !l.current(m.Epoch):
		return nil
	case l.stage == aborted && l.reply != nil:
		return e.ep.Send(e.cfg.Coordinator, l.reply)
	case l.images != nil:
		if err := e.install(l.images); err != nil {
			// State integrity beats protocol progress: keep the images and
			// let the coordinator's retry re-attempt the rollback.
			return fmt.Errorf("relocation abort epoch %d: %w", m.Epoch, err)
		}
		l.images = nil
		e.log.Info("relocation_rolled_back", obs.FUint("epoch", m.Epoch))
	}
	return e.answer(aborted, proto.RelocAbortAck{Epoch: m.Epoch, Node: e.cfg.Node, Installed: l.stage == installed})
}

// onStateTransfer implements the receiver side of step 6. A duplicate
// (a retried SendStates after a lost Installed) is re-acked without
// re-installing.
func (e *Engine) onStateTransfer(m proto.StateTransfer) error {
	if run, err := e.step(m.Epoch, fresh, installed); !run {
		return err
	}
	span := e.tracer.StartChild(obs.SpanRelocationReceive, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", fmt.Sprintf("%d", m.Epoch))
	span.SetAttr("groups", fmt.Sprintf("%d", len(m.Images)))
	// Decode everything before installing anything: a corrupt transfer
	// must not leave half of itself behind.
	images := make([]*spill.Image, len(m.Images))
	for i, buf := range m.Images {
		var err error
		if images[i], err = spill.DecodeImage(buf); err != nil {
			span.Abort(e.clock.Now(), err.Error())
			return fmt.Errorf("decode transferred state: %w", err)
		}
		if !images[i].Empty() {
			e.ledger.arrived[images[i].Group()] = m.Epoch
		}
	}
	if err := e.install(images); err != nil {
		span.Abort(e.clock.Now(), err.Error())
		return err
	}
	span.End(e.clock.Now())
	e.reg.Counter("distq_engine_relocations_in_total").Inc()
	return e.answer(installed, proto.Installed{Epoch: m.Epoch, Node: e.cfg.Node})
}

// onForceSpill implements the active-disk start_ss event.
func (e *Engine) onForceSpill(m proto.ForceSpill) error {
	if run, err := e.step(m.Seq, fresh, done); !run {
		return err
	}
	bytes := e.spill(m.Amount, "forced", m.Trace)
	return e.answer(done, proto.SpillDone{Node: e.cfg.Node, Bytes: bytes, Seq: m.Seq})
}

// Crash simulates an abrupt machine failure: message processing halts
// (everything still queued is discarded), timers stop, and the endpoint
// detaches. In-memory state is not preserved — a fresh engine under the
// same name rejoins empty and is re-seeded as a follower (PROTOCOL.md
// "Cold restart"). Callable from any goroutine.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	if e.ep != nil {
		_ = e.ep.Close()
	}
	e.doneOnce.Do(func() { close(e.done) })
}

// onJoinAck completes the dynamic-join handshake.
func (e *Engine) onJoinAck(m proto.JoinAck) error {
	if !m.Accepted {
		e.log.Error("join_refused", obs.F("reason", m.Reason))
		return fmt.Errorf("join refused by coordinator: %s", m.Reason)
	}
	if !e.joined.Swap(true) {
		e.log.Info("joined_cluster", obs.F("coordinator", string(e.cfg.Coordinator)))
	}
	return nil
}

// onPromote installs this engine's warm standby copies of the groups as
// resident operator state. The coordinator's trace context parents the
// install span under its promotion span.
func (e *Engine) onPromote(m proto.Promote) error {
	if run, err := e.step(m.Epoch, fresh, done); !run {
		return err
	}
	span := e.tracer.StartChild(obs.SpanPromotionInstall, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", strconv.FormatUint(m.Epoch, 10))
	span.SetAttr("from", string(m.From))
	span.SetAttr("groups", strconv.Itoa(len(m.Groups)))
	installed, err := e.repl.promote(m.Groups)
	if err != nil {
		// No ack: state integrity beats protocol progress; the
		// coordinator's retry or escalation decides what happens next.
		span.Abort(e.clock.Now(), err.Error())
		return err
	}
	span.SetAttr("installed", strconv.Itoa(installed))
	span.End(e.clock.Now())
	for _, g := range m.Groups {
		e.ledger.arrived[g] = m.Epoch
	}
	e.reg.Counter("distq_engine_promotions_total").Inc()
	return e.answer(done, proto.PromoteAck{Epoch: m.Epoch, Node: e.cfg.Node, Installed: true})
}

// onDemote drops this revived engine's now-stale copies of groups that
// were failed over away from it while it was presumed dead, if they
// arrived before the demote: a repeat drops nothing, a group that came
// back since stays. The replication tail is flushed to the new owners
// first, so tuples buffered here merge into their resident state.
func (e *Engine) onDemote(m proto.Demote) error {
	stale := slices.DeleteFunc(slices.Clone(m.Groups), func(g partition.ID) bool { return e.ledger.arrived[g] > m.Epoch })
	e.repl.tailFlush(stale)
	dropped := 0
	for _, id := range stale {
		im, err := e.release(id)
		if err != nil {
			return fmt.Errorf("drop demoted group %d: %w", id, err)
		}
		if !im.Empty() {
			dropped++
		}
	}
	if dropped > 0 {
		e.reg.Counter("distq_engine_demotions_total").Inc()
		e.log.Info("groups_demoted", obs.FUint("epoch", m.Epoch), obs.FInt("dropped", int64(dropped)),
			obs.FInt("groups_left", int64(e.op.Groups())), obs.FInt("segments_left", int64(e.cfg.Store.SegmentCount())))
	}
	return e.ep.Send(e.cfg.Coordinator, proto.DemoteAck{Epoch: m.Epoch, Node: e.cfg.Node})
}

// onDrain answers the end-of-run fence. The Drain's arrival proves every
// earlier tuple on the requester's FIFO link was processed; what is left
// is that the results reach the application server, and links are FIFO
// per pair only. So the engine flushes its results and sends the Drain
// on to the application server behind them, on the link they travel, and
// acknowledges to the requester when the application server has
// (onDrainAck).
func (e *Engine) onDrain(from partition.NodeID, m proto.Drain) error {
	if err := e.reportStats(); err != nil {
		return err
	}
	// Push coalesced frames headed elsewhere (deltas to followers) to the
	// wire too, so the ack cannot imply "drained" while they sit in a
	// write buffer.
	transport.FlushOutbound(e.ep)
	if e.cfg.Addr != "" {
		// One process per node: tell the application server where its
		// answer goes.
		if err := e.ep.Send(e.cfg.AppServer, proto.MemberAddr{Node: e.cfg.Node, Addr: e.cfg.Addr}); err != nil {
			return err
		}
	}
	e.drainFrom[m.Token] = from
	return e.ep.Send(e.cfg.AppServer, proto.Drain{Token: m.Token})
}

// onDrainAck completes a relayed fence: the application server has
// recorded everything this engine sent before the Drain. A token not
// waited for is a duplicate and dropped.
func (e *Engine) onDrainAck(m proto.DrainAck) error {
	requester, ok := e.drainFrom[m.Token]
	if !ok {
		return nil
	}
	delete(e.drainFrom, m.Token)
	return e.ep.Send(requester, proto.DrainAck{Token: m.Token, Node: e.cfg.Node})
}

// onCleanup runs the disk-phase cleanup over this engine's store and
// resident state on the handler goroutine, shipping results
// (materializing mode) and reporting the outcome to the requester. A
// repeated StartCleanup is answered with the first run's report and
// produces no result again.
func (e *Engine) onCleanup(from partition.NodeID) error {
	if e.cleanupDone != nil {
		return e.ep.Send(from, *e.cleanupDone)
	}
	span := e.tracer.Start(obs.SpanCleanup, string(e.cfg.Node), e.clock.Now())
	var emit join.EmitFunc
	switch {
	case e.cfg.Materialize:
		// Run-time results still buffered leave under their own phase.
		e.maybeFlushResults(true)
		e.resultPhase = proto.PhaseCleanup
		emit = e.bufferResult
	case e.cfg.EnumerateResults:
		emit = func(tuple.Result) {}
	}
	st, err := cleanup.Run(e.cfg.Inputs, e.cfg.Store, e.op, e.cfg.Window, emit)
	e.reg.Counter("distq_engine_cleanup_results_total").Add(float64(st.Results))
	span.SetAttr("groups", fmt.Sprintf("%d", st.Groups))
	span.SetAttr("segments", fmt.Sprintf("%d", st.Segments))
	span.SetAttr("results", fmt.Sprintf("%d", st.Results))
	if err != nil {
		span.Abort(e.clock.Now(), err.Error())
	} else {
		span.End(e.clock.Now())
	}
	done := proto.CleanupDone{
		Node:      e.cfg.Node,
		Groups:    st.Groups,
		Segments:  st.Segments,
		Tuples:    st.Tuples,
		Results:   st.Results,
		ElapsedNs: st.Elapsed.Nanoseconds(),
	}
	if err != nil {
		// Report the failure instead of leaving the requester waiting.
		done.Error = err.Error()
	}
	e.cleanupDone = &done
	e.maybeFlushResults(true)
	if sendErr := e.ep.Send(from, done); sendErr != nil {
		return sendErr
	}
	return err
}

// bufferResult encodes one emitted result into the pending payload and
// ships it once the threshold is reached.
func (e *Engine) bufferResult(r tuple.Result) {
	e.resultPayload = r.AppendTo(e.resultPayload)
	e.resultCount++
	e.maybeFlushResults(false)
}

// maybeFlushResults ships the pending payload when forced or at the
// threshold. The receiver retains the payload (the in-process transport
// hands the message over by reference), so a fresh buffer is started
// rather than truncating this one. ResultData batches are
// order-independent sets.
func (e *Engine) maybeFlushResults(force bool) {
	if e.resultCount == 0 || (!force && e.resultCount < resultFlushThreshold) {
		return
	}
	payload := e.resultPayload
	e.resultPayload = nil
	e.resultCount = 0
	if err := e.ep.Send(e.cfg.AppServer, proto.ResultData{Node: e.cfg.Node, Payload: payload, Phase: e.resultPhase}); err != nil {
		e.log.Error("result_flush_error", obs.FErr(err))
	}
}

func (e *Engine) shutdown() {
	e.stopped = true
	e.doneOnce.Do(func() { close(e.done) })
}

// Done closes once the engine's handler has processed Stop; the harness
// waits on it before reading engine state.
func (e *Engine) Done() <-chan struct{} { return e.done }

// Stop halts the engine's timers (idempotent, callable from any
// goroutine once the experiment is over).
func (e *Engine) Stop() {
	if e.ep != nil {
		// Route through the handler for single-threaded shutdown.
		//distqlint:allow uncheckederr: best-effort self-stop; a dead own endpoint is already stopped
		e.ep.Send(e.cfg.Node, proto.Stop{})
	}
}

// Op exposes the join operator for post-run inspection by the harness
// (only safe after the engine is stopped or drained).
func (e *Engine) Op() *join.Operator { return e.op }
