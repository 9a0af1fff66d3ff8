// Package coordinator implements the global coordinator (GC): it collects
// light-weight statistics from every query engine, evaluates the
// configured adaptation strategy on its load-balancing timer, and
// orchestrates the 8-step state relocation protocol and the active-disk
// forced spills (paper §2, §4.1, §5).
//
// Like the engines, the coordinator is event-driven and single-threaded:
// all messages (including its own timers) arrive through the transport's
// serial handler.
//
// Every adaptation — relocation, drain, forced spill, promotion, the
// rollback of a relocation, a revived engine's resume and demote — is a
// plan, an ordered list of awaited steps (plan.go), run by one driver
// (driver.go) that assumes nothing about delivery: with RelocTimeout
// set each step is retried with exponential backoff and then escalated
// as its row says, so no adaptation can hang past its deadlines. A
// heartbeat watchdog declares engines silent past HeartbeatTimeout
// dead: their partitions are paused at the split host (tuples buffer
// instead of vanishing into a dead link) and they are excluded from
// adaptation until they re-register, at which point the buffered
// partitions are resumed. See PROTOCOL.md "Failure model".
package coordinator

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Config parameterizes the coordinator.
type Config struct {
	Node partition.NodeID
	// SplitHost is the node running the split operators (the stream
	// generator machine); Pause/Remap messages go there.
	SplitHost partition.NodeID
	// Engines are the query engine nodes under management.
	Engines []partition.NodeID
	// Strategy decides relocations and forced spills.
	Strategy core.Strategy
	// Map is the master partition map; relocations update it.
	Map *partition.Map
	// LBInterval is the lb_timer period (virtual).
	LBInterval time.Duration
	// RelocTimeout, when positive, arms a virtual-time deadline on every
	// awaited step of every plan; it doubles on every retry. Zero
	// disables the deadlines (like HeartbeatTimeout, the hardening is
	// opt-in — and resumes and demotes are sent once): the in-process
	// transport cannot lose messages, and the scaled clock keeps running
	// while a backlogged peer churns through its queue, so on a loss-free
	// deployment a virtual deadline only races healthy-but-slow engines.
	// Enable it wherever messages can actually vanish (the chaos suite
	// does).
	RelocTimeout time.Duration
	// RelocMaxRetries bounds how often a pending step is re-sent before
	// the coordinator escalates as the step's plan row says. Defaults to
	// 2; negative disables retries.
	RelocMaxRetries int
	// HeartbeatTimeout, when positive, arms the engine watchdog: an
	// engine silent (no StatsReport/Hello) for longer is declared dead.
	HeartbeatTimeout time.Duration
	// Replicate enables per-group replication: the coordinator assigns
	// every partition group a follower engine, broadcasts the
	// assignment as a ReplicaMap on each lb tick, and — when the
	// watchdog declares a primary dead — promotes the followers
	// (Promote/PromoteAck) and commits a new partition map instead of
	// parking the groups until the engine returns.
	Replicate bool
	// OnError, when set, receives every error surfaced by the
	// coordinator's handler (in addition to the error counter and log),
	// letting the harness fail loudly on e.g. a dead appserver link.
	OnError func(error)
}

// engineInfo is the coordinator's view of one engine.
type engineInfo struct {
	last       proto.StatsReport
	haveReport bool
	prevOutput uint64 // output at the previous strategy evaluation
	memSeries  *stats.Series
	lastSeen   vclock.Time
	alive      atomic.Bool
	// state is the engine's core.Member (atomic: accessors read it off
	// the handler thread).
	state atomic.Int32
	// diedAt is when the watchdog last declared the engine dead; the
	// promotion span starts there so its duration measures true failover
	// latency.
	diedAt vclock.Time
	// lastReplVersion is the ReplicaMap version from the engine's latest
	// stats report; the replication-settled fence compares it against
	// the broadcast version.
	lastReplVersion atomic.Uint64
	// memberSpan is the open membership span of an in-flight join
	// admission or leave drain (handler-thread only).
	memberSpan *obs.Span
}

func (e *engineInfo) member() core.Member { return core.Member(e.state.Load()) }

// serving engines are alive and active: the ones adaptations may use.
func (e *engineInfo) serving() bool { return e.alive.Load() && e.member() == core.MemberActive }

// Coordinator is the global adaptation controller.
type Coordinator struct {
	cfg   Config
	clock vclock.Clock
	ep    transport.Endpoint
	net   transport.Network

	// memberAddrs holds transport addresses learned from dynamic
	// JoinRequests, keyed by node. Handler-goroutine only. Disseminated
	// via proto.MemberAddr so directory-based transports stay routable.
	memberAddrs map[partition.NodeID]string

	// memMu guards engines-map inserts (dynamic joins) against the
	// concurrent accessor reads; the handler thread is the only writer.
	memMu   sync.RWMutex
	engines map[partition.NodeID]*engineInfo

	// epoch is the id counter (nextID); runs holds every adaptation in
	// flight by the id its awaited step was sent under, fg the one
	// foreground adaptation among them (relocation, drain, forced spill,
	// promotion and their rollback); resumes and demotes run beside it.
	// See plan.go and driver.go.
	epoch uint64
	runs  map[uint64]*run
	fg    *run
	// pendingDemotes holds failed-over groups per victim until the
	// victim revives and can be told.
	pendingDemotes map[partition.NodeID][]partition.ID
	resumeCount    atomic.Int64
	demoteCount    atomic.Int64

	// replVersion/replEntries/replAssign cache the follower assignment
	// broadcast as ReplicaMap (replAssign indexes it by group for the
	// promotion planner).
	replVersion atomic.Uint64
	replEntries []proto.ReplicaEntry
	replAssign  map[partition.ID]partition.NodeID

	// lagMu guards nodeLag, the per-primary replication lag from the
	// latest stats reports (read by monitoring accessors).
	lagMu   sync.Mutex
	nodeLag map[partition.NodeID]map[partition.ID]int64

	reg           *obs.Registry
	tracer        *obs.Tracer
	log           *obs.Logger
	mRelocations  *obs.Counter
	mAborted      *obs.Counter
	mForcedSpills *obs.Counter
	mTicks        *obs.Counter
	mRetries      *obs.Counter
	mUnresolved   *obs.Counter
	mErrors       *obs.Counter
	mDeaths       *obs.Counter
	mRevivals     *obs.Counter
	mRelocVSecs   *obs.Histogram
	mJoins        *obs.Counter
	mLeaves       *obs.Counter
	mPromotions   *obs.Counter
	mDemotions    *obs.Counter
	mPromoSecs    *obs.Histogram

	quiesced      bool
	quiesceWaiter partition.NodeID

	// lbDue is the deadline of the armed lb_timer tick; each self-sent
	// tick arms the next (onTick).
	lbDue   vclock.Time
	stopped bool
	// done closes when the serial handler has processed Stop, fencing
	// post-run state reads without wall-clock sleeps.
	done chan struct{}
}

// New builds a coordinator; Attach must be called before Start.
func New(cfg Config, clock vclock.Clock) (*Coordinator, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("coordinator: nil strategy")
	}
	if cfg.Map == nil {
		return nil, fmt.Errorf("coordinator: nil partition map")
	}
	if cfg.LBInterval <= 0 {
		cfg.LBInterval = 10 * time.Second
	}
	if cfg.RelocMaxRetries == 0 {
		cfg.RelocMaxRetries = 2
	}
	c := &Coordinator{
		cfg:            cfg,
		clock:          clock,
		engines:        make(map[partition.NodeID]*engineInfo),
		runs:           make(map[uint64]*run),
		pendingDemotes: make(map[partition.NodeID][]partition.ID),
		replAssign:     make(map[partition.ID]partition.NodeID),
		nodeLag:        make(map[partition.NodeID]map[partition.ID]int64),
		reg:            obs.NewRegistry(),
		tracer:         obs.NewTracer(0),
		log:            obs.NewLogger(obs.LoggerConfig{Node: string(cfg.Node), Kind: "coordinator", Now: clock.Now}),
		done:           make(chan struct{}),
	}
	now := clock.Now()
	for _, n := range cfg.Engines {
		info := &engineInfo{memSeries: stats.NewSeries(string(n)), lastSeen: now}
		info.alive.Store(true)
		c.engines[n] = info
	}
	c.reg.Help("distq_coordinator_relocations_total", "completed state relocations")
	c.reg.Help("distq_coordinator_relocations_aborted_total", "relocations aborted before completion")
	c.reg.Help("distq_coordinator_forced_spills_total", "completed forced (coordinator-ordered) spills")
	c.reg.Help("distq_coordinator_lb_ticks_total", "load-balancing timer expirations")
	c.reg.Help("distq_coordinator_reloc_retries_total", "protocol steps re-sent after an await-phase timeout")
	c.reg.Help("distq_coordinator_reloc_unresolved_total", "adaptations abandoned with retries exhausted (requires operator attention)")
	c.reg.Help("distq_coordinator_errors_total", "errors surfaced by the coordinator handler")
	c.reg.Help("distq_coordinator_engine_deaths_total", "engines declared dead by the heartbeat watchdog")
	c.reg.Help("distq_coordinator_engine_revivals_total", "dead engines that re-registered")
	c.reg.Help("distq_coordinator_relocation_duration_vseconds", "virtual duration of completed relocations, CptV to RemapAck")
	c.reg.Help("distq_coordinator_engine_mem_bytes", "per-engine memory usage from the latest stats report")
	c.reg.Help("distq_coordinator_member_joins_total", "engines admitted into the running cluster (active after first report)")
	c.reg.Help("distq_coordinator_member_leaves_total", "engines drained of their partitions and released")
	c.reg.Help("distq_coordinator_promotions_total", "completed follower promotions (failover from the warm standby)")
	c.reg.Help("distq_coordinator_demotions_total", "revived engines demoted back to follower duty")
	c.reg.Help("distq_coordinator_promotion_seconds", "virtual seconds from watchdog-declared death to the failover's last remap ack")
	c.reg.Help("distq_coordinator_replication_lag_bytes", "per-engine replication lag from the latest stats report")
	c.mRelocations = c.reg.Counter("distq_coordinator_relocations_total")
	c.mAborted = c.reg.Counter("distq_coordinator_relocations_aborted_total")
	c.mForcedSpills = c.reg.Counter("distq_coordinator_forced_spills_total")
	c.mTicks = c.reg.Counter("distq_coordinator_lb_ticks_total")
	c.mRetries = c.reg.Counter("distq_coordinator_reloc_retries_total")
	c.mUnresolved = c.reg.Counter("distq_coordinator_reloc_unresolved_total")
	c.mErrors = c.reg.Counter("distq_coordinator_errors_total")
	c.mDeaths = c.reg.Counter("distq_coordinator_engine_deaths_total")
	c.mRevivals = c.reg.Counter("distq_coordinator_engine_revivals_total")
	c.mRelocVSecs = c.reg.Histogram("distq_coordinator_relocation_duration_vseconds", obs.VirtualDurationBuckets)
	c.mJoins = c.reg.Counter("distq_coordinator_member_joins_total")
	c.mLeaves = c.reg.Counter("distq_coordinator_member_leaves_total")
	c.mPromotions = c.reg.Counter("distq_coordinator_promotions_total")
	c.mDemotions = c.reg.Counter("distq_coordinator_demotions_total")
	c.mPromoSecs = c.reg.Histogram("distq_coordinator_promotion_seconds", obs.VirtualDurationBuckets)
	return c, nil
}

// Registry exposes the coordinator's metrics registry (monitoring
// endpoints, transport instrumentation).
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Tracer exposes the coordinator's span tracer; every adaptation is
// recorded there as one span.
func (c *Coordinator) Tracer() *obs.Tracer { return c.tracer }

// Logger exposes the coordinator's structured logger (level control,
// output mirroring, the monitor's /logs endpoint).
func (c *Coordinator) Logger() *obs.Logger { return c.log }

// Attach joins the coordinator to the network.
func (c *Coordinator) Attach(net transport.Network) error {
	ep, err := net.Attach(c.cfg.Node, c.Handle)
	if err != nil {
		return err
	}
	c.ep = ep
	c.net = net
	return nil
}

// Start arms the load-balancing timer.
func (c *Coordinator) Start() error {
	if c.ep == nil {
		return fmt.Errorf("coordinator: not attached")
	}
	c.lbDue = c.clock.Now()
	c.armLB()
	return nil
}

// armLB moves lbDue to the next lb_timer deadline and arms the tick.
func (c *Coordinator) armLB() {
	now := c.clock.Now()
	c.lbDue = vclock.Next(c.lbDue, c.cfg.LBInterval, now)
	c.after(c.lbDue.Sub(now), proto.Tick{Kind: proto.TickLB})
}

// after sends m to the coordinator's own endpoint once virtual d has
// passed: the one way its timers (lb_timer, step deadlines) fire.
func (c *Coordinator) after(d time.Duration, m proto.Message) {
	ep, self := c.ep, c.cfg.Node // not c: a stopped coordinator is not kept for its timers
	c.clock.AfterFunc(d, func() {
		//distqlint:allow uncheckederr: self-addressed timer; a dead own endpoint means shutdown already won the race
		ep.Send(self, m)
	})
}

// MemSeries returns the recorded memory usage series of an engine.
func (c *Coordinator) MemSeries(node partition.NodeID) *stats.Series {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	if info, ok := c.engines[node]; ok {
		return info.memSeries
	}
	return nil
}

// Relocations reports completed relocations. Safe for concurrent use
// (e.g. from a monitoring endpoint).
func (c *Coordinator) Relocations() int { return int(c.mRelocations.Value()) }

// ForcedSpills reports completed forced spills. Safe for concurrent use.
func (c *Coordinator) ForcedSpills() int { return int(c.mForcedSpills.Value()) }

// EngineAlive reports the watchdog's view of an engine. Safe for
// concurrent use.
func (c *Coordinator) EngineAlive(node partition.NodeID) bool {
	c.memMu.RLock()
	info, ok := c.engines[node]
	c.memMu.RUnlock()
	return ok && info.alive.Load()
}

// PendingResumes reports how many revived engines' partition releases
// still await their RemapAck. Safe for concurrent use.
func (c *Coordinator) PendingResumes() int { return int(c.resumeCount.Load()) }

// Promotions reports completed follower promotions. Safe for
// concurrent use.
func (c *Coordinator) Promotions() int { return int(c.mPromotions.Value()) }

// Demotions reports completed demotions of revived engines. Safe for
// concurrent use.
func (c *Coordinator) Demotions() int { return int(c.mDemotions.Value()) }

// PendingDemotes reports demotions queued for a dead victim or still
// awaiting their DemoteAck. Safe for concurrent use.
func (c *Coordinator) PendingDemotes() int { return int(c.demoteCount.Load()) }

// Membership reports every tracked engine's membership state:
// "joining", "active", "draining", "left" — or "dead" when the
// watchdog lost a not-yet-left engine. Safe for concurrent use.
func (c *Coordinator) Membership() map[partition.NodeID]string {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	out := make(map[partition.NodeID]string, len(c.engines))
	for node, info := range c.engines {
		s := info.member()
		if s != core.MemberLeft && !info.alive.Load() {
			out[node] = "dead"
			continue
		}
		out[node] = s.String()
	}
	return out
}

// ReplicationLag reports the latest per-group replication lag in bytes
// summed across primaries. Safe for concurrent use.
func (c *Coordinator) ReplicationLag() map[partition.ID]int64 {
	c.lagMu.Lock()
	defer c.lagMu.Unlock()
	out := make(map[partition.ID]int64)
	for _, groups := range c.nodeLag {
		for id, v := range groups {
			out[id] += v
		}
	}
	return out
}

// ReplicationSettled reports whether every live active engine has
// applied the current ReplicaMap broadcast and drained its replication
// buffers to zero lag — the fence chaos scenarios hold before killing
// a primary. Safe for concurrent use.
func (c *Coordinator) ReplicationSettled() bool {
	version := c.replVersion.Load()
	if version == 0 {
		return false
	}
	c.memMu.RLock()
	for _, info := range c.engines {
		if !info.alive.Load() || info.member() != core.MemberActive {
			continue
		}
		if info.lastReplVersion.Load() != version {
			c.memMu.RUnlock()
			return false
		}
	}
	c.memMu.RUnlock()
	c.lagMu.Lock()
	defer c.lagMu.Unlock()
	for _, groups := range c.nodeLag {
		for _, v := range groups {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// fail surfaces a handler error: counted, logged, and forwarded to the
// OnError sink so a dead link fails loudly instead of stalling a fence.
func (c *Coordinator) fail(err error) {
	c.mErrors.Inc()
	c.log.Error("handler_error", obs.FErr(err))
	if c.cfg.OnError != nil {
		c.cfg.OnError(err)
	}
}

// Handle is the coordinator's transport handler. Every ack goes to the
// driver with the id it echoes and the node that must have sent it.
func (c *Coordinator) Handle(from partition.NodeID, msg proto.Message) {
	if c.stopped {
		return
	}
	var err error
	switch m := msg.(type) {
	case proto.Hello:
		c.heartbeat(m.Node)
	case proto.StatsReport:
		c.onStats(m)
	case proto.Tick:
		if from == c.cfg.Node {
			c.armLB() // a tick from another node leaves the period alone
		}
		c.onTick()
	case proto.PtV:
		c.ack(m, m.Epoch, m.Node)
	case proto.MarkerAck:
		c.ack(m, m.Epoch, m.Node)
	case proto.Installed:
		c.ack(m, m.Epoch, m.Node)
	case proto.RemapAck:
		c.ack(m, m.Epoch, c.cfg.SplitHost)
	case proto.SpillDone:
		c.ack(m, m.Seq, m.Node)
	case proto.RelocAbortAck:
		c.ack(m, m.Epoch, m.Node)
	case proto.PromoteAck:
		c.ack(m, m.Epoch, m.Node)
	case proto.DemoteAck:
		c.ack(m, m.Epoch, m.Node)
	case proto.RelocTimeout:
		c.onDeadline(m)
	case proto.JoinRequest:
		err = c.onJoinRequest(m)
	case proto.Leave:
		err = c.onLeave(m)
	case proto.Quiesce:
		c.quiesced, c.quiesceWaiter = true, from
		c.settle()
	case proto.Stop:
		c.shutdown()
	default:
		err = fmt.Errorf("unexpected message %T from %s", msg, from)
	}
	if err != nil {
		c.fail(err)
	}
}

func (c *Coordinator) onStats(m proto.StatsReport) {
	info, ok := c.engines[m.Node]
	if !ok {
		return
	}
	c.heartbeat(m.Node)
	info.last = m
	info.haveReport = true
	info.memSeries.Add(c.clock.Now(), float64(m.MemBytes))
	c.reg.Gauge("distq_coordinator_engine_mem_bytes", obs.L("engine", string(m.Node))).Set(float64(m.MemBytes))
	if info.member() == core.MemberJoining {
		// First report: the joiner's load is now known, making it
		// eligible for core.Decide's shed.
		info.state.Store(int32(core.MemberActive))
		c.mJoins.Inc()
		now := c.clock.Now()
		info.memberSpan.End(now)
		info.memberSpan = nil
		c.log.Info("engine_joined", obs.F("engine", string(m.Node)))
	}
	info.lastReplVersion.Store(m.ReplVersion)
	var lag int64
	for _, v := range m.ReplLag {
		lag += v
	}
	c.lagMu.Lock()
	if len(m.ReplLag) > 0 {
		c.nodeLag[m.Node] = maps.Clone(m.ReplLag)
	} else {
		delete(c.nodeLag, m.Node)
	}
	c.lagMu.Unlock()
	if c.cfg.Replicate {
		c.reg.Gauge("distq_coordinator_replication_lag_bytes", obs.L("engine", string(m.Node))).Set(float64(lag))
	}
}

// heartbeat records proof of life from an engine, reviving it if the
// watchdog had declared it dead. A victim reviving mid-failover is
// demoted of what the promotion has committed (nothing, before the
// commit) but NOT resumed: the promotion only moves forward, and what
// the victim keeps is resumed when it is done.
func (c *Coordinator) heartbeat(node partition.NodeID) {
	info, ok := c.engines[node]
	if !ok {
		return
	}
	if info.member() == core.MemberLeft {
		return // terminal: a left engine cannot revive under its old name
	}
	now := c.clock.Now()
	info.lastSeen = now
	if info.alive.Load() {
		return
	}
	info.alive.Store(true)
	c.mRevivals.Inc()
	c.log.Info("engine_revived", obs.F("engine", string(node)))
	c.queueDemote(node)
	if fg := c.fg; fg == nil || fg.plan != &promotionPlan || fg.sender != node {
		c.resume(node)
	}
}

// resume releases a node's partitions at the split host under the
// current map (owner unchanged).
func (c *Coordinator) resume(node partition.NodeID) {
	if parts := c.cfg.Map.OwnedBy(node); len(parts) > 0 {
		c.launch(&run{plan: &resumePlan, sender: node, receiver: node, parts: parts})
	}
}

// queueDemote tells a revived engine to drop the groups failed over
// away from it while it was presumed dead.
func (c *Coordinator) queueDemote(node partition.NodeID) {
	if parts := c.pendingDemotes[node]; len(parts) > 0 {
		delete(c.pendingDemotes, node)
		c.launch(&run{plan: &demotePlan, sender: node, receiver: node, parts: parts})
	}
}

// onTick runs the watchdog and the housekeeping broadcasts, then — only
// one foreground adaptation runs at a time — asks core.Decide for the
// next one.
func (c *Coordinator) onTick() {
	c.mTicks.Inc()
	now := c.clock.Now()
	c.checkHeartbeats(now)
	if c.cfg.Replicate {
		c.broadcastReplicaMap()
	}
	// Pure acknowledgment, safe mid-adaptation: a leaver that already
	// owns nothing must not wait on an unrelated in-flight relocation.
	c.ackDrainedLeavers()
	if c.fg != nil || c.quiesced {
		return
	}
	d := core.Decide(c.view(now), c.cfg.Strategy)
	if d.Evaluated {
		// Productivity rates are per evaluation period: advance the window.
		for _, info := range c.engines {
			info.prevOutput = info.last.Output
		}
	}
	r := &run{sender: d.Sender, receiver: d.Receiver, amount: d.Amount, lowProd: d.LowProd, reason: d.Reason}
	switch d.Kind {
	case core.Promote:
		r.plan = &promotionPlan
		for _, id := range c.cfg.Map.OwnedBy(d.Sender) {
			if c.replAssign[id] == d.Receiver {
				r.parts = append(r.parts, id)
			}
		}
	case core.Drain:
		r.plan, r.parts = &drainPlan, c.cfg.Map.OwnedBy(d.Sender)
	case core.Relocate:
		r.plan = &relocationPlan // the sender picks the groups
	case core.ForceSpill:
		r.plan = &forcedSpillPlan
	default:
		return
	}
	c.launch(r)
}

// names lists the tracked engines in name order.
func (c *Coordinator) names() []partition.NodeID {
	nodes := make([]partition.NodeID, 0, len(c.engines))
	for node := range c.engines {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	return nodes
}

// view is what core.Decide reads: every tracked engine in name order,
// with its latest report, what the master map gives it, and the first
// serving follower the replica assignment names for its groups. A
// revived engine still dropping the groups failed over away from it
// counts as unreported until its demotion is acknowledged: no state is
// sent to it, or judged by its figures, while it holds stale copies.
func (c *Coordinator) view(now vclock.Time) core.View {
	nodes := c.names()
	demoting := make(map[partition.NodeID]bool)
	for _, r := range c.runs {
		if r.plan == &demotePlan {
			demoting[r.sender] = true
		}
	}
	v := core.View{Now: now, Engines: make([]core.Engine, 0, len(nodes))}
	for _, node := range nodes {
		info := c.engines[node]
		owned := c.cfg.Map.OwnedBy(node)
		e := core.Engine{Node: node, Member: info.member(), Alive: info.alive.Load(),
			Reported: info.haveReport && !demoting[node], Resident: info.last.MemBytes - info.last.Standby,
			Standby: info.last.Standby, Groups: info.last.Groups, OutputDelta: info.last.Output - info.prevOutput,
			Owned: len(owned)}
		for _, id := range owned {
			if f := c.engines[c.replAssign[id]]; f != nil && f.serving() {
				e.Follower = c.replAssign[id]
				break
			}
		}
		v.Engines = append(v.Engines, e)
	}
	return v
}

// checkHeartbeats runs the engine watchdog: an engine silent past
// HeartbeatTimeout is declared dead and its partitions are paused at
// the split host so their tuples buffer instead of vanishing into a
// dead link. The pause is re-sent on every tick while the engine stays
// dead (it is idempotent), healing a lost pause by the next interval.
func (c *Coordinator) checkHeartbeats(now vclock.Time) {
	if c.cfg.HeartbeatTimeout <= 0 {
		return
	}
	for node, info := range c.engines {
		if info.member() == core.MemberLeft {
			continue // released engines are no longer watched
		}
		if info.alive.Load() {
			if now.Sub(info.lastSeen) > c.cfg.HeartbeatTimeout {
				info.alive.Store(false)
				info.diedAt = now
				c.mDeaths.Inc()
				c.log.Warn("engine_dead", obs.F("engine", string(node)),
					obs.F("silent_for", now.Sub(info.lastSeen).String()))
				c.pauseDead(node)
			}
			continue
		}
		c.pauseDead(node)
	}
}

// pauseDead pauses a dead engine's partitions at the split host.
func (c *Coordinator) pauseDead(node partition.NodeID) {
	parts := c.cfg.Map.OwnedBy(node)
	if len(parts) == 0 {
		return
	}
	if err := c.ep.Send(c.cfg.SplitHost, proto.Pause{Epoch: c.nextID(), Partitions: parts, Owner: node}); err != nil {
		c.fail(fmt.Errorf("pause dead engine %s: %w", node, err))
	}
}

// onJoinRequest admits a dynamically joining engine. Idempotent: an
// engine already tracked is re-acked (its JoinAck may have been lost).
// A name that already left is refused — resurrecting it could confuse
// stale protocol traffic from its previous life with the new one.
func (c *Coordinator) onJoinRequest(m proto.JoinRequest) error {
	c.learnMemberAddr(m.Node, m.Addr)
	if info, ok := c.engines[m.Node]; ok {
		if info.member() == core.MemberLeft {
			return c.ep.Send(m.Node, proto.JoinAck{Node: m.Node, Accepted: false,
				Reason: "node name previously left the cluster"})
		}
		c.heartbeat(m.Node)
		return c.ep.Send(m.Node, proto.JoinAck{Node: m.Node, Accepted: true})
	}
	now := c.clock.Now()
	info := &engineInfo{memSeries: stats.NewSeries(string(m.Node)), lastSeen: now}
	info.alive.Store(true)
	info.state.Store(int32(core.MemberJoining))
	span := c.tracer.Start(obs.SpanMembership, string(c.cfg.Node), now)
	span.SetAttr("kind", "join")
	span.SetAttr("node", string(m.Node))
	info.memberSpan = span
	c.memMu.Lock()
	c.engines[m.Node] = info
	c.memMu.Unlock()
	c.log.Info("engine_admitted", obs.F("engine", string(m.Node)))
	return c.ep.Send(m.Node, proto.JoinAck{Node: m.Node, Accepted: true})
}

// learnMemberAddr records a dynamically joined engine's transport
// address, extends the coordinator's own directory (directory-based
// transports expose AddNode; in-proc ignores it), and disseminates it:
// broadcast to the split host and every current member, and a replay of
// all previously learned addresses to the joiner itself. Must run
// before the JoinAck is sent — the ack is routed by directory too.
// Idempotent per (node, addr); handler-goroutine only.
func (c *Coordinator) learnMemberAddr(node partition.NodeID, addr string) {
	if addr == "" || c.memberAddrs[node] == addr {
		return
	}
	if c.memberAddrs == nil {
		c.memberAddrs = make(map[partition.NodeID]string)
	}
	c.memberAddrs[node] = addr
	transport.AddNode(c.net, node, addr)
	c.log.Info("member_addr", obs.F("engine", string(node)), obs.F("addr", addr))
	msg := proto.MemberAddr{Node: node, Addr: addr}
	if err := c.ep.Send(c.cfg.SplitHost, msg); err != nil {
		c.fail(fmt.Errorf("member addr to split host: %w", err))
	}
	for peer, info := range c.engines {
		if peer == node || info.member() == core.MemberLeft {
			continue
		}
		if err := c.ep.Send(peer, msg); err != nil {
			c.fail(fmt.Errorf("member addr to %s: %w", peer, err))
		}
	}
	for other, oaddr := range c.memberAddrs {
		if other == node {
			continue
		}
		if err := c.ep.Send(node, proto.MemberAddr{Node: other, Addr: oaddr}); err != nil {
			c.fail(fmt.Errorf("member addr replay to %s: %w", node, err))
		}
	}
}

// onLeave marks an engine draining: the drain planner relocates its
// groups away on subsequent ticks and ackDrainedLeavers answers once
// it owns nothing. Idempotent — an engine already left is re-acked.
func (c *Coordinator) onLeave(m proto.Leave) error {
	info, ok := c.engines[m.Node]
	if !ok {
		return fmt.Errorf("leave from unknown engine %s", m.Node)
	}
	if info.member() == core.MemberLeft {
		return c.ep.Send(m.Node, proto.LeaveAck{Node: m.Node})
	}
	c.heartbeat(m.Node)
	if info.member() != core.MemberDraining {
		now := c.clock.Now()
		info.state.Store(int32(core.MemberDraining))
		info.memberSpan.End(now)
		span := c.tracer.Start(obs.SpanMembership, string(c.cfg.Node), now)
		span.SetAttr("kind", "leave")
		span.SetAttr("node", string(m.Node))
		info.memberSpan = span
		owned := len(c.cfg.Map.OwnedBy(m.Node))
		c.log.Info("engine_draining", obs.F("engine", string(m.Node)), obs.FInt("partitions", int64(owned)))
	}
	c.ackDrainedLeavers()
	return nil
}

// ackDrainedLeavers releases draining engines that own no partitions:
// LeaveAck is sent, the state becomes Left (terminal), and the engine
// drops out of the watchdog, the load set, and the replica ring. A
// lost ack self-heals through the engine's Leave retry.
func (c *Coordinator) ackDrainedLeavers() {
	for node, info := range c.engines {
		if info.member() != core.MemberDraining {
			continue
		}
		if len(c.cfg.Map.OwnedBy(node)) != 0 {
			continue
		}
		now := c.clock.Now()
		info.state.Store(int32(core.MemberLeft))
		info.memberSpan.End(now)
		info.memberSpan = nil
		c.mLeaves.Inc()
		c.lagMu.Lock()
		delete(c.nodeLag, node)
		c.lagMu.Unlock()
		c.log.Info("engine_left", obs.F("engine", string(node)))
		if err := c.ep.Send(node, proto.LeaveAck{Node: node}); err != nil {
			c.fail(fmt.Errorf("leave ack to %s: %w", node, err))
		}
	}
}

// broadcastReplicaMap recomputes the desired follower assignment and
// broadcasts it to every live engine. The version bumps only when the
// assignment changes, but the current map is re-sent on every tick:
// engines apply only newer versions, so a lost broadcast self-heals
// without churn.
func (c *Coordinator) broadcastReplicaMap() {
	ring := slices.DeleteFunc(c.names(), func(n partition.NodeID) bool { return !c.engines[n].serving() })
	if len(ring) < 2 {
		return // nobody can follow for anybody
	}
	entries := make([]proto.ReplicaEntry, 0, c.cfg.Map.N())
	for id := 0; id < c.cfg.Map.N(); id++ {
		pid := partition.ID(id)
		owner, err := c.cfg.Map.Owner(pid)
		if err != nil {
			continue
		}
		if f := core.FollowerFor(ring, owner); f != "" {
			entries = append(entries, proto.ReplicaEntry{Group: pid, Primary: owner, Follower: f})
		}
	}
	if !slices.Equal(entries, c.replEntries) {
		c.replEntries = entries
		c.replAssign = make(map[partition.ID]partition.NodeID, len(entries))
		for _, e := range entries {
			c.replAssign[e.Group] = e.Follower
		}
		c.replVersion.Add(1)
		c.log.Info("replica_map_updated", obs.FUint("version", c.replVersion.Load()),
			obs.FInt("entries", int64(len(entries))))
	}
	version := c.replVersion.Load()
	if version == 0 {
		return
	}
	msg := proto.ReplicaMap{Version: version, Entries: c.replEntries}
	for node, info := range c.engines {
		if !info.alive.Load() || info.member() == core.MemberLeft {
			continue
		}
		if err := c.ep.Send(node, msg); err != nil {
			c.fail(fmt.Errorf("replica map to %s: %w", node, err))
		}
	}
}

func (c *Coordinator) shutdown() {
	c.stopped = true
	close(c.done)
}

// Done closes once the coordinator's handler has processed Stop; the
// harness waits on it before reading coordinator state.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Stop halts the coordinator's timer via its own handler.
func (c *Coordinator) Stop() {
	if c.ep != nil {
		//distqlint:allow uncheckederr: best-effort self-stop; a dead own endpoint is already stopped
		c.ep.Send(c.cfg.Node, proto.Stop{})
	}
}
