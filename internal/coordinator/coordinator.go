// Package coordinator implements the global coordinator (GC): it collects
// light-weight statistics from every query engine, evaluates the
// configured adaptation strategy on its load-balancing timer, and
// orchestrates the 8-step state relocation protocol and the active-disk
// forced spills (paper §2, §4.1, §5).
//
// Like the engines, the coordinator is event-driven and single-threaded:
// all messages (including its own timer) arrive through the transport's
// serial handler.
//
// The coordinator assumes nothing about delivery: with RelocTimeout
// set, every await phase of the relocation protocol is guarded by a
// virtual-time timeout that retries the pending (idempotent) step with
// exponential backoff and, once retries are exhausted, rolls the
// relocation back through the RelocAbort path — the pre-relocation
// partition map is restored and the paused partitions are released, so
// no relocation can hang past its deadline. (On loss-free transports
// the deadlines stay disarmed — see Config.RelocTimeout.)
// A heartbeat watchdog declares engines silent past
// HeartbeatTimeout dead: their partitions are paused at the split host
// (tuples buffer instead of vanishing into a dead link) and they are
// excluded from adaptation until they re-register, at which point the
// buffered partitions are resumed. See PROTOCOL.md "Failure model".
package coordinator

import (
	"fmt"
	"sort"
	"strconv"
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
	// RelocTimeout, when positive, arms a virtual-time deadline on each
	// await phase of the relocation protocol; it doubles on every
	// retry. Zero disables the deadlines (like HeartbeatTimeout, the
	// hardening is opt-in): the in-process transport cannot lose
	// messages, and the scaled clock keeps running while a backlogged
	// peer churns through its queue, so on a loss-free deployment a
	// virtual deadline only races healthy-but-slow engines. Enable it
	// wherever messages can actually vanish (the chaos suite does).
	RelocTimeout time.Duration
	// RelocMaxRetries bounds how often a pending step is re-sent before
	// the coordinator escalates (abort, or give-up for committed
	// phases). Defaults to 2; negative disables retries.
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

// MemberState is the coordinator's membership view of an engine.
type MemberState int32

// Membership states. Statically configured engines start Active; a
// dynamically admitted engine is Joining until its first StatsReport;
// a departing engine is Draining until it owns no partitions, then
// Left (terminal — the name cannot rejoin). Dead/alive, the watchdog's
// view, is orthogonal to membership.
const (
	MemberActive MemberState = iota
	MemberJoining
	MemberDraining
	MemberLeft
)

// String names the membership state for snapshots and logs.
func (s MemberState) String() string {
	switch s {
	case MemberActive:
		return "active"
	case MemberJoining:
		return "joining"
	case MemberDraining:
		return "draining"
	case MemberLeft:
		return "left"
	default:
		return "unknown"
	}
}

// engineInfo is the coordinator's view of one engine.
type engineInfo struct {
	last       proto.StatsReport
	haveReport bool
	prevOutput uint64 // output at the previous strategy evaluation
	memSeries  *stats.Series
	lastSeen   vclock.Time
	alive      atomic.Bool
	// state is the engine's MemberState (atomic: accessors read it off
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

// relocPhase tracks the protocol step of the in-flight adaptation,
// including the rollback phases of an aborting relocation.
type relocPhase int

const (
	relocIdle relocPhase = iota
	relocWaitPtV
	relocWaitMarker
	relocWaitInstalled
	relocWaitRemapAck
	forceWaitSpillDone
	// abortWaitReceiver awaits the receiver's RelocAbortAck, which
	// resolves whether the transferred state was installed (commit
	// forward) or not (roll back through the sender).
	abortWaitReceiver
	// abortWaitSender awaits the sender's RelocAbortAck (state
	// reinstalled locally, relocation mode cleared).
	abortWaitSender
	// abortWaitResume awaits the split host's RemapAck for the restore
	// Remap that re-enables the paused partitions under the old owner.
	abortWaitResume
	// promoWaitAck awaits a follower's PromoteAck during a failover;
	// promoWaitRemap awaits the split host's RemapAck for a promoted
	// step. Both commit forward: escalation skips the unresponsive step,
	// never rolls back.
	promoWaitAck
	promoWaitRemap
)

// phaseName labels phases for events and errors.
func (p relocPhase) String() string {
	switch p {
	case relocIdle:
		return "idle"
	case relocWaitPtV:
		return "wait_ptv"
	case relocWaitMarker:
		return "wait_marker"
	case relocWaitInstalled:
		return "wait_installed"
	case relocWaitRemapAck:
		return "wait_remap_ack"
	case forceWaitSpillDone:
		return "wait_spill_done"
	case abortWaitReceiver:
		return "abort_wait_receiver"
	case abortWaitSender:
		return "abort_wait_sender"
	case abortWaitResume:
		return "abort_wait_resume"
	case promoWaitAck:
		return "promo_wait_ack"
	case promoWaitRemap:
		return "promo_wait_remap"
	default:
		return "unknown"
	}
}

// resumeState tracks one pending partition resume (a revived engine's
// partitions being released at the split host).
type resumeState struct {
	node     partition.NodeID
	parts    []partition.ID
	attempts int
}

// resumeMaxRetries bounds lb-tick re-sends of a resume Remap before it
// is abandoned with an unresolved error.
const resumeMaxRetries = 10

// demoteState tracks one pending demotion: a revived engine dropping
// groups that were failed over away from it while it was presumed
// dead. Retried on the lb tick like resumes.
type demoteState struct {
	node     partition.NodeID
	parts    []partition.ID
	attempts int
}

// demoteMaxRetries bounds lb-tick re-sends of a Demote before it is
// abandoned with an unresolved error.
const demoteMaxRetries = 10

// promoStep is one follower's share of a failover.
type promoStep struct {
	to     partition.NodeID
	groups []partition.ID
	acked  bool
}

// promoState tracks one in-flight failover: the dead primary, when the
// watchdog flagged it, and the per-follower promotion steps driven
// sequentially through the await-phase timeout machinery.
type promoState struct {
	victim    partition.NodeID
	deathAt   vclock.Time
	steps     []*promoStep
	idx       int
	committed bool
	span      *obs.Span
}

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
	events  *stats.EventLog

	epoch    uint64
	phase    relocPhase
	sender   partition.NodeID
	receiver partition.NodeID
	parts    []partition.ID
	started  vclock.Time
	span     *obs.Span
	// phaseSpan is the child span of the current await phase (one of the
	// four relocation waits), opened on each transition and closed when
	// the awaited reply arrives; aborts close it as aborted.
	phaseSpan *obs.Span

	// Await-phase timeout machinery: pendingTo/pendingMsg is the step
	// re-sent on timeout, attempts counts re-sends, timeoutSeq
	// invalidates timers armed for earlier phases.
	pendingTo   partition.NodeID
	pendingMsg  proto.Message
	attempts    int
	timeoutSeq  uint64
	resumeAfter bool // an aborting relocation must restore the split host
	forceSeq    uint64

	// resumes tracks pending partition releases by epoch (dead-engine
	// revival and abort restores share the retry path on the lb tick).
	resumes      map[uint64]*resumeState
	resumeCount  atomic.Int64
	running      atomic.Bool // Start was called; timers may be armed
	watchdogLast vclock.Time

	// directed marks the in-flight relocation as a coordinator-directed
	// drain (the partitions were chosen here, not by a CptV round).
	directed bool

	// promo is the in-flight failover, if any; demotes tracks Demotes
	// awaiting their ack by epoch; pendingDemotes holds failed-over
	// groups per victim until the victim revives and can be told.
	promo          *promoState
	demotes        map[uint64]*demoteState
	pendingDemotes map[partition.NodeID][]partition.ID
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

	ticker  *vclock.Ticker
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
		events:         stats.NewEventLog(),
		resumes:        make(map[uint64]*resumeState),
		demotes:        make(map[uint64]*demoteState),
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
	c.running.Store(true)
	c.ticker = c.clock.NewTicker(c.cfg.LBInterval)
	self := c.cfg.Node
	go func() {
		for {
			select {
			case <-c.ticker.C:
				if err := c.ep.Send(self, proto.Tick{Kind: proto.TickLB}); err != nil {
					return
				}
			case <-c.done:
				return
			}
		}
	}()
	return nil
}

// Events exposes the coordinator's adaptation event log.
func (c *Coordinator) Events() *stats.EventLog { return c.events }

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

// AbortedRelocations reports relocations rolled back (empty PtV or
// exhausted retries). Safe for concurrent use.
func (c *Coordinator) AbortedRelocations() int { return int(c.mAborted.Value()) }

// Unresolved reports adaptations abandoned with retries exhausted —
// always zero unless the split host or an engine stayed unreachable
// past every deadline. Safe for concurrent use.
func (c *Coordinator) Unresolved() int { return int(c.mUnresolved.Value()) }

// Errors reports the handler error count. Safe for concurrent use.
func (c *Coordinator) Errors() int { return int(c.mErrors.Value()) }

// EngineAlive reports the watchdog's view of an engine. Safe for
// concurrent use.
func (c *Coordinator) EngineAlive(node partition.NodeID) bool {
	c.memMu.RLock()
	info, ok := c.engines[node]
	c.memMu.RUnlock()
	return ok && info.alive.Load()
}

// PendingResumes reports how many partition releases (revived engines,
// abort restores) still await their RemapAck. Safe for concurrent use.
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
		s := MemberState(info.state.Load())
		if s != MemberLeft && !info.alive.Load() {
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
		if !info.alive.Load() || MemberState(info.state.Load()) != MemberActive {
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

// Handle is the coordinator's transport handler.
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
		err = c.onTick()
	case proto.PtV:
		err = c.onPtV(m)
	case proto.MarkerAck:
		err = c.onMarkerAck(m)
	case proto.Installed:
		err = c.onInstalled(m)
	case proto.RemapAck:
		err = c.onRemapAck(m)
	case proto.SpillDone:
		c.onSpillDone(m)
	case proto.RelocTimeout:
		err = c.onRelocTimeout(m)
	case proto.RelocAbortAck:
		err = c.onRelocAbortAck(m)
	case proto.JoinRequest:
		err = c.onJoinRequest(m)
	case proto.Leave:
		err = c.onLeave(m)
	case proto.PromoteAck:
		err = c.onPromoteAck(m)
	case proto.DemoteAck:
		c.onDemoteAck(m)
	case proto.Quiesce:
		err = c.onQuiesce(from)
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
	if MemberState(info.state.Load()) == MemberJoining {
		// First report: the joiner's load is now known, making it
		// eligible for the rebalance planner.
		info.state.Store(int32(MemberActive))
		c.mJoins.Inc()
		now := c.clock.Now()
		if info.memberSpan != nil {
			info.memberSpan.End(now)
			info.memberSpan = nil
		}
		c.events.Add(stats.Event{T: now, Node: m.Node, Kind: stats.EventJoin, Detail: "first report; active"})
		c.log.Info("engine_joined", obs.F("engine", string(m.Node)))
	}
	info.lastReplVersion.Store(m.ReplVersion)
	var lag int64
	for _, v := range m.ReplLag {
		lag += v
	}
	c.lagMu.Lock()
	if len(m.ReplLag) > 0 {
		groups := make(map[partition.ID]int64, len(m.ReplLag))
		for id, v := range m.ReplLag {
			groups[id] = v
		}
		c.nodeLag[m.Node] = groups
	} else {
		delete(c.nodeLag, m.Node)
	}
	c.lagMu.Unlock()
	if c.cfg.Replicate {
		c.reg.Gauge("distq_coordinator_replication_lag_bytes", obs.L("engine", string(m.Node))).Set(float64(lag))
	}
}

// heartbeat records proof of life from an engine, reviving it if the
// watchdog had declared it dead. A victim reviving mid-failover is NOT
// resumed: the promotion only moves forward, and once the new map is
// committed the revived engine is demoted back to follower duty.
func (c *Coordinator) heartbeat(node partition.NodeID) {
	info, ok := c.engines[node]
	if !ok {
		return
	}
	if MemberState(info.state.Load()) == MemberLeft {
		return // terminal: a left engine cannot revive under its old name
	}
	now := c.clock.Now()
	info.lastSeen = now
	if info.alive.Load() {
		return
	}
	info.alive.Store(true)
	c.mRevivals.Inc()
	c.events.Add(stats.Event{T: now, Node: node, Kind: stats.EventEngineAlive, Detail: "re-registered"})
	c.log.Info("engine_revived", obs.F("engine", string(node)))
	if c.promo != nil && c.promo.victim == node {
		if c.promo.committed {
			c.queueDemote(node)
		}
		// Pre-commit: commitPromotion will queue the demote; whatever the
		// victim keeps is resumed by finishPromotion.
		return
	}
	if len(c.pendingDemotes[node]) > 0 {
		c.queueDemote(node)
	}
	c.resumePartitions(node, "revived engine")
}

// resumePartitions releases a node's partitions at the split host under
// the current map (owner unchanged), tracked until the RemapAck.
func (c *Coordinator) resumePartitions(node partition.NodeID, why string) {
	parts := c.cfg.Map.OwnedBy(node)
	if len(parts) == 0 {
		return
	}
	c.epoch++
	c.resumes[c.epoch] = &resumeState{node: node, parts: parts}
	c.resumeCount.Store(int64(len(c.resumes)))
	if err := c.ep.Send(c.cfg.SplitHost, proto.Remap{
		Epoch: c.epoch, Partitions: parts, Owner: node, Version: c.cfg.Map.Version(),
	}); err != nil {
		c.fail(fmt.Errorf("resume (%s) remap: %w", why, err))
	}
}

// onQuiesce stops new adaptations and acknowledges once idle. Pending
// watchdog resumes count as in-flight work: acking while a revived
// engine's partitions are still paused would let the caller fence the
// data path past their buffered tuples.
func (c *Coordinator) onQuiesce(from partition.NodeID) error {
	c.quiesced = true
	if c.phase == relocIdle && len(c.resumes) == 0 && len(c.demotes) == 0 {
		return c.ep.Send(from, proto.QuiesceAck{})
	}
	c.quiesceWaiter = from
	return nil
}

// becameIdle notifies a pending quiesce waiter once the relocation
// protocol, the watchdog resume queue, and the demotion queue are all
// idle.
func (c *Coordinator) becameIdle() {
	if c.quiesceWaiter == "" || c.phase != relocIdle || len(c.resumes) != 0 || len(c.demotes) != 0 {
		return
	}
	waiter := c.quiesceWaiter
	c.quiesceWaiter = ""
	if err := c.ep.Send(waiter, proto.QuiesceAck{}); err != nil {
		c.fail(fmt.Errorf("quiesce ack: %w", err))
	}
}

// onTick evaluates the strategy (Algorithms 1 and 2, events at GC). Only
// one adaptation runs at a time.
func (c *Coordinator) onTick() error {
	c.mTicks.Inc()
	now := c.clock.Now()
	c.checkHeartbeats(now)
	c.retryResumes()
	c.retryDemotes()
	if c.cfg.Replicate {
		c.broadcastReplicaMap()
	}
	// Pure acknowledgment, safe mid-adaptation: a leaver that already
	// owns nothing must not wait on an unrelated in-flight relocation.
	c.ackDrainedLeavers()
	if c.phase != relocIdle || c.quiesced {
		return nil
	}
	if c.cfg.Replicate && c.maybePromote(now) {
		return nil
	}
	if c.maybeDrainLeaver(now) {
		return nil
	}
	if c.maybeShedToJoiner(now) {
		return nil
	}
	loads := make([]core.EngineLoad, 0, len(c.engines))
	for node, info := range c.engines {
		if MemberState(info.state.Load()) != MemberActive {
			continue // joining: no state yet; draining/left: on the way out
		}
		if !info.alive.Load() {
			continue // dead engines are no relocation senders or targets
		}
		if !info.haveReport {
			return nil // wait until every live engine has reported once
		}
		loads = append(loads, core.EngineLoad{
			Node:        node,
			MemBytes:    info.last.MemBytes,
			Groups:      info.last.Groups,
			OutputDelta: info.last.Output - info.prevOutput,
		})
	}
	if len(loads) == 0 {
		return nil
	}
	action := c.cfg.Strategy.Decide(loads, now)
	// Productivity rates are per evaluation period: advance the window.
	for _, info := range c.engines {
		info.prevOutput = info.last.Output
	}
	if action == nil {
		return nil
	}
	switch {
	case action.Relocate != nil:
		return c.startRelocation(action.Relocate)
	case action.ForceSpill != nil:
		return c.startForcedSpill(action.ForceSpill)
	}
	return nil
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
		if MemberState(info.state.Load()) == MemberLeft {
			continue // released engines are no longer watched
		}
		if info.alive.Load() {
			if now.Sub(info.lastSeen) > c.cfg.HeartbeatTimeout {
				info.alive.Store(false)
				info.diedAt = now
				c.mDeaths.Inc()
				c.events.Add(stats.Event{T: now, Node: node, Kind: stats.EventEngineDead,
					Detail: fmt.Sprintf("silent for %s", now.Sub(info.lastSeen))})
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
	c.epoch++
	if err := c.ep.Send(c.cfg.SplitHost, proto.Pause{Epoch: c.epoch, Partitions: parts, Owner: node}); err != nil {
		c.fail(fmt.Errorf("pause dead engine %s: %w", node, err))
	}
}

// retryResumes re-sends pending resume Remaps on the lb tick until
// acknowledged or abandoned.
func (c *Coordinator) retryResumes() {
	for epoch, r := range c.resumes {
		r.attempts++
		if r.attempts > resumeMaxRetries {
			delete(c.resumes, epoch)
			c.resumeCount.Store(int64(len(c.resumes)))
			c.mUnresolved.Inc()
			c.fail(fmt.Errorf("resume of %s (epoch %d) unacknowledged after %d attempts", r.node, epoch, r.attempts-1))
			c.becameIdle() // the fence must still unblock after a failed resume
			continue
		}
		if err := c.ep.Send(c.cfg.SplitHost, proto.Remap{
			Epoch: epoch, Partitions: r.parts, Owner: r.node, Version: c.cfg.Map.Version(),
		}); err != nil {
			c.fail(fmt.Errorf("resume retry: %w", err))
		}
	}
}

// beginPhase opens the await-phase child span under the in-flight
// adaptation span (closing any phase span left open).
func (c *Coordinator) beginPhase(name string, vt vclock.Time) {
	c.endPhase(vt)
	c.phaseSpan = c.tracer.StartChild(name, string(c.cfg.Node), vt, c.span.Context())
}

// endPhase closes the open await-phase span, if any.
func (c *Coordinator) endPhase(vt vclock.Time) {
	if c.phaseSpan != nil {
		c.phaseSpan.End(vt)
		c.phaseSpan = nil
	}
}

// abortPhase closes the open await-phase span as aborted, if any.
func (c *Coordinator) abortPhase(vt vclock.Time, reason string) {
	if c.phaseSpan != nil {
		c.phaseSpan.Abort(vt, reason)
		c.phaseSpan = nil
	}
}

// startRelocation runs protocol step 1.
func (c *Coordinator) startRelocation(r *core.Relocation) error {
	if info, ok := c.engines[r.Sender]; !ok || !info.alive.Load() {
		return fmt.Errorf("relocation sender %s unknown or dead", r.Sender)
	}
	if info, ok := c.engines[r.Receiver]; !ok || !info.alive.Load() {
		return fmt.Errorf("relocation receiver %s unknown or dead", r.Receiver)
	}
	c.epoch++
	c.phase = relocWaitPtV
	c.sender, c.receiver = r.Sender, r.Receiver
	c.started = c.clock.Now()
	c.resumeAfter = false
	c.directed = false
	c.span = c.tracer.Start(obs.SpanRelocation, string(c.cfg.Node), c.started)
	c.span.SetAttr("epoch", strconv.FormatUint(c.epoch, 10))
	c.span.SetAttr("sender", string(r.Sender))
	c.span.SetAttr("receiver", string(r.Receiver))
	c.span.SetAttr("amount_bytes", strconv.FormatInt(r.Amount, 10))
	if r.LowProd {
		c.span.SetAttr("reason", "rebalance")
	}
	c.span.Step(obs.StepCptV, c.started)
	c.beginPhase(obs.SpanRelocWaitPtV, c.started)
	c.log.Info("relocation_started",
		obs.FUint("epoch", c.epoch), obs.F("sender", string(r.Sender)),
		obs.F("receiver", string(r.Receiver)), obs.FInt("amount_bytes", r.Amount))
	return c.sendStep(r.Sender, proto.CptV{Epoch: c.epoch, Amount: r.Amount, Receiver: r.Receiver, LowProd: r.LowProd, Trace: c.span.Context()})
}

func (c *Coordinator) startForcedSpill(f *core.ForcedSpill) error {
	if info, ok := c.engines[f.Node]; !ok || !info.alive.Load() {
		return fmt.Errorf("forced-spill target %s unknown or dead", f.Node)
	}
	c.phase = forceWaitSpillDone
	c.sender = f.Node
	c.forceSeq++
	c.span = c.tracer.Start(obs.SpanForcedSpill, string(c.cfg.Node), c.clock.Now())
	c.span.SetAttr("node", string(f.Node))
	c.span.SetAttr("amount_bytes", strconv.FormatInt(f.Amount, 10))
	c.log.Info("forced_spill_started",
		obs.F("engine", string(f.Node)), obs.FInt("amount_bytes", f.Amount), obs.FUint("seq", c.forceSeq))
	return c.sendStep(f.Node, proto.ForceSpill{Amount: f.Amount, Seq: c.forceSeq, Trace: c.span.Context()})
}

// sendStep transitions into an await phase: it records the pending
// (idempotent) step for timeout-driven retries, arms the virtual-time
// deadline, and sends.
func (c *Coordinator) sendStep(to partition.NodeID, msg proto.Message) error {
	c.pendingTo, c.pendingMsg = to, msg
	c.attempts = 0
	c.armTimeout()
	return c.ep.Send(to, msg)
}

// armTimeout schedules a RelocTimeout for the current phase and attempt
// count (exponential backoff). Timers are only armed on a running
// coordinator (Start called); the sequence number invalidates timers
// from earlier phases.
func (c *Coordinator) armTimeout() {
	c.timeoutSeq++
	if !c.running.Load() {
		return // unit rigs drive the protocol synchronously
	}
	if c.cfg.RelocTimeout <= 0 {
		return // deadlines disabled: loss-free transport
	}
	d := c.cfg.RelocTimeout
	for i := 0; i < c.attempts; i++ {
		d *= 2
	}
	seq, epoch := c.timeoutSeq, c.epoch
	ch := c.clock.After(d)
	go func() {
		select {
		case <-ch:
			//distqlint:allow uncheckederr: self-addressed timer; a dead own endpoint means shutdown already won the race
			c.ep.Send(c.cfg.Node, proto.RelocTimeout{Epoch: epoch, Seq: seq})
		case <-c.done:
		}
	}()
}

// disarm invalidates the armed await-phase timer.
func (c *Coordinator) disarm() { c.timeoutSeq++ }

// onRelocTimeout handles an await-phase deadline: re-send the pending
// step while retries remain, then escalate.
func (c *Coordinator) onRelocTimeout(m proto.RelocTimeout) error {
	if m.Seq != c.timeoutSeq || c.phase == relocIdle {
		return nil // stale timer from an earlier phase
	}
	if c.attempts < c.cfg.RelocMaxRetries {
		c.attempts++
		c.mRetries.Inc()
		c.events.Add(stats.Event{T: c.clock.Now(), Node: c.pendingTo, Kind: stats.EventRetry,
			Detail: fmt.Sprintf("phase %s attempt %d epoch %d", c.phase, c.attempts, c.epoch)})
		c.armTimeout()
		return c.ep.Send(c.pendingTo, c.pendingMsg)
	}
	return c.escalate()
}

// escalate handles an await phase whose retries are exhausted.
func (c *Coordinator) escalate() error {
	now := c.clock.Now()
	switch c.phase {
	case relocWaitPtV:
		// Nothing paused, nothing moved: release the sender and finish.
		c.resumeAfter = false
		return c.enterAbortSender("ptv timeout")
	case relocWaitMarker:
		// The split host may or may not have paused: release the sender,
		// then restore the split host (idempotent either way).
		c.resumeAfter = true
		return c.enterAbortSender("marker timeout")
	case relocWaitInstalled:
		// The transfer may have raced the abort: ask the receiver first;
		// its ack resolves commit-forward versus roll-back.
		c.phase = abortWaitReceiver
		c.abortPhase(now, "installed timeout")
		c.span.SetAttr("abort_from", "wait_installed")
		return c.sendStep(c.receiver, proto.RelocAbort{Epoch: c.epoch})
	case relocWaitRemapAck:
		// The map is committed; rolling back would fork ownership. Give
		// up loudly — the split host link is gone past every deadline.
		c.giveUp("remap unacknowledged")
		return nil
	case abortWaitSender:
		if c.resumeAfter {
			// The sender never acked the rollback, but the paused
			// partitions must not stay parked at the split host: restore
			// them anyway (the remap is idempotent, and a slow sender's
			// late abort handling re-acks harmlessly), then surface the
			// unacknowledged sender as an error rather than lost data.
			c.fail(fmt.Errorf("adaptation epoch %d: sender abort unacknowledged, restoring split host", c.epoch))
			c.phase = abortWaitResume
			return c.sendStep(c.cfg.SplitHost, proto.Remap{
				Epoch: c.epoch, Partitions: c.parts, Owner: c.sender, Version: c.cfg.Map.Version(),
			})
		}
		c.giveUp("abort unacknowledged in " + c.phase.String())
		return nil
	case abortWaitReceiver, abortWaitResume:
		c.giveUp("abort unacknowledged in " + c.phase.String())
		return nil
	case forceWaitSpillDone:
		c.span.Abort(now, "spill done timeout")
		c.span = nil
		c.mAborted.Inc()
		c.disarm()
		c.phase = relocIdle
		c.becameIdle()
		return nil
	case promoWaitAck:
		// The follower never acked: skip it — its groups stay paused and
		// a later watchdog tick retries their promotion — and carry on
		// with the remaining steps.
		p := c.promo
		c.mUnresolved.Inc()
		c.fail(fmt.Errorf("promotion epoch %d: follower %s unresponsive, skipping %d groups",
			c.epoch, p.steps[p.idx].to, len(p.steps[p.idx].groups)))
		p.idx++
		if p.idx < len(p.steps) {
			c.sendPromoteStep(now)
			return nil
		}
		return c.commitPromotion(now)
	case promoWaitRemap:
		// The map is committed; never roll back. Surface the silent
		// split host and finish the remaining steps.
		p := c.promo
		c.mUnresolved.Inc()
		c.fail(fmt.Errorf("promotion epoch %d: remap for %s unacknowledged", c.epoch, p.steps[p.idx].to))
		p.idx++
		if c.advanceToAckedStep() {
			c.sendPromoRemap(now)
			return nil
		}
		return c.finishPromotion(now)
	default:
		return nil
	}
}

// enterAbortSender starts the sender half of the rollback.
func (c *Coordinator) enterAbortSender(reason string) error {
	c.phase = abortWaitSender
	c.abortPhase(c.clock.Now(), reason)
	c.span.SetAttr("abort_reason", reason)
	return c.sendStep(c.sender, proto.RelocAbort{Epoch: c.epoch})
}

// giveUp abandons the in-flight adaptation with retries exhausted. The
// coordinator returns to idle (bounded: it never hangs), but the result
// is surfaced as an unresolved error — state may be parked until the
// unreachable peer returns.
func (c *Coordinator) giveUp(reason string) {
	c.mUnresolved.Inc()
	c.fail(fmt.Errorf("adaptation epoch %d unresolved: %s", c.epoch, reason))
	c.abortAdaptation(c.clock.Now(), reason)
}

// onRelocAbortAck advances the rollback state machine.
func (c *Coordinator) onRelocAbortAck(m proto.RelocAbortAck) error {
	if m.Epoch != c.epoch {
		return nil // stale
	}
	now := c.clock.Now()
	switch c.phase {
	case abortWaitReceiver:
		if m.Node != c.receiver {
			return nil
		}
		if m.Installed {
			// The receiver holds the state: commit forward.
			c.span.SetAttr("abort_resolution", "commit_forward")
			return c.commitAndRemap(now)
		}
		// Roll back through the sender, then restore the split host.
		c.resumeAfter = true
		return c.enterAbortSender("installed timeout")
	case abortWaitSender:
		if m.Node != c.sender {
			return nil
		}
		if !c.resumeAfter {
			c.abortAdaptation(now, "aborted in wait_ptv")
			return nil
		}
		// Restore the split host: same owner, current (unchanged) map
		// version; remap unpauses and flushes the buffered tuples.
		c.phase = abortWaitResume
		return c.sendStep(c.cfg.SplitHost, proto.Remap{
			Epoch: c.epoch, Partitions: c.parts, Owner: c.sender, Version: c.cfg.Map.Version(),
			Trace: c.span.Context(),
		})
	default:
		return nil
	}
}

// onPtV runs protocol step 3: pause the moving partitions at the split
// host. An empty list aborts the adaptation.
func (c *Coordinator) onPtV(m proto.PtV) error {
	if c.phase != relocWaitPtV || m.Epoch != c.epoch {
		return nil // stale
	}
	now := c.clock.Now()
	c.span.Step(obs.StepPtV, now)
	c.endPhase(now)
	if len(m.Partitions) == 0 {
		c.abortAdaptation(now, "empty ptv")
		return nil
	}
	c.parts = m.Partitions
	c.phase = relocWaitMarker
	c.span.SetAttr("partitions", strconv.Itoa(len(m.Partitions)))
	c.span.Step(obs.StepPause, now)
	c.beginPhase(obs.SpanRelocWaitMarker, now)
	return c.sendStep(c.cfg.SplitHost, proto.Pause{Epoch: c.epoch, Partitions: m.Partitions, Owner: c.sender, Trace: c.span.Context()})
}

// abortAdaptation closes the in-flight span as aborted and returns the
// coordinator to idle.
func (c *Coordinator) abortAdaptation(vt vclock.Time, reason string) {
	c.abortPhase(vt, reason)
	c.span.Abort(vt, reason)
	c.span = nil
	c.log.Warn("relocation_aborted", obs.FUint("epoch", c.epoch), obs.F("reason", reason))
	c.mAborted.Inc()
	c.events.Add(stats.Event{T: vt, Node: c.sender, Kind: stats.EventAbort, Detail: reason})
	c.disarm()
	c.phase = relocIdle
	c.parts = nil
	c.becameIdle()
}

// onMarkerAck runs protocol step 5: the sender drained its data path;
// order the state transfer.
func (c *Coordinator) onMarkerAck(m proto.MarkerAck) error {
	if c.phase != relocWaitMarker || m.Epoch != c.epoch || m.Node != c.sender {
		return nil
	}
	now := c.clock.Now()
	c.span.Step(obs.StepMarkerAck, now)
	c.endPhase(now)
	c.phase = relocWaitInstalled
	c.span.Step(obs.StepSendStates, now)
	c.beginPhase(obs.SpanRelocWaitInstall, now)
	return c.sendStep(c.sender, proto.SendStates{Epoch: c.epoch, Partitions: c.parts, Receiver: c.receiver, Directed: c.directed, Trace: c.span.Context()})
}

// onInstalled runs protocol step 7: commit the new ownership to the
// master map and remap the split host.
func (c *Coordinator) onInstalled(m proto.Installed) error {
	if c.phase != relocWaitInstalled || m.Epoch != c.epoch || m.Node != c.receiver {
		return nil
	}
	now := c.clock.Now()
	c.span.Step(obs.StepInstalled, now)
	c.endPhase(now)
	return c.commitAndRemap(now)
}

// commitAndRemap commits the new ownership to the master map and orders
// the split host remap (step 7), from the normal path or from an abort
// resolved as commit-forward.
func (c *Coordinator) commitAndRemap(now vclock.Time) error {
	version, err := c.cfg.Map.Move(c.parts, c.receiver)
	if err != nil {
		c.abortAdaptation(now, "map commit: "+err.Error())
		return fmt.Errorf("commit relocation: %w", err)
	}
	c.phase = relocWaitRemapAck
	c.span.Step(obs.StepRemap, now)
	c.beginPhase(obs.SpanRelocWaitRemapAck, now)
	return c.sendStep(c.cfg.SplitHost, proto.Remap{
		Epoch: c.epoch, Partitions: c.parts, Owner: c.receiver, Version: version,
	})
}

// onRemapAck completes a relocation (step 8), an abort restore, or a
// pending dead-engine resume.
func (c *Coordinator) onRemapAck(m proto.RemapAck) error {
	if r, ok := c.resumes[m.Epoch]; ok {
		delete(c.resumes, m.Epoch)
		c.resumeCount.Store(int64(len(c.resumes)))
		c.events.Add(stats.Event{T: c.clock.Now(), Node: r.node, Kind: stats.EventEngineAlive,
			Detail: fmt.Sprintf("%d partitions resumed", len(r.parts))})
		c.becameIdle()
		return nil
	}
	if m.Epoch != c.epoch {
		return nil
	}
	now := c.clock.Now()
	switch c.phase {
	case relocWaitRemapAck:
		c.span.Step(obs.StepRemapAck, now)
		c.endPhase(now)
		c.span.End(now)
		c.span = nil
		c.mRelocations.Inc()
		c.mRelocVSecs.ObserveDuration(now.Sub(c.started))
		c.log.Info("relocation_complete",
			obs.FUint("epoch", c.epoch), obs.F("sender", string(c.sender)),
			obs.F("receiver", string(c.receiver)), obs.FInt("partitions", int64(len(c.parts))))
		c.events.Add(stats.Event{
			T: now, Node: c.sender, Kind: stats.EventRelocation,
			Detail: fmt.Sprintf("%d groups %s->%s in %s", len(c.parts), c.sender, c.receiver, now.Sub(c.started)),
		})
		c.disarm()
		c.phase = relocIdle
		c.parts = nil
		c.becameIdle()
		return nil
	case abortWaitResume:
		c.abortAdaptation(now, "rolled back, split host restored")
		return nil
	case promoWaitRemap:
		p := c.promo
		p.span.Step(obs.StepRemapAcked, now)
		c.disarm()
		p.idx++
		if c.advanceToAckedStep() {
			c.sendPromoRemap(now)
			return nil
		}
		return c.finishPromotion(now)
	default:
		return nil
	}
}

func (c *Coordinator) onSpillDone(m proto.SpillDone) {
	if c.phase != forceWaitSpillDone || m.Node != c.sender {
		return
	}
	if m.Seq != 0 && m.Seq != c.forceSeq {
		return // ack of an earlier forced spill
	}
	c.span.SetAttr("spilled_bytes", strconv.FormatInt(m.Bytes, 10))
	c.span.End(c.clock.Now())
	c.span = nil
	c.mForcedSpills.Inc()
	c.log.Info("forced_spill_complete", obs.F("engine", string(m.Node)), obs.FInt("spilled_bytes", m.Bytes))
	c.events.Add(stats.Event{
		T: c.clock.Now(), Node: m.Node, Kind: stats.EventForcedSpill,
		Detail: fmt.Sprintf("%d bytes", m.Bytes),
	})
	c.disarm()
	c.phase = relocIdle
	c.becameIdle()
}

// onJoinRequest admits a dynamically joining engine. Idempotent: an
// engine already tracked is re-acked (its JoinAck may have been lost).
// A name that already left is refused — resurrecting it could confuse
// stale protocol traffic from its previous life with the new one.
func (c *Coordinator) onJoinRequest(m proto.JoinRequest) error {
	c.learnMemberAddr(m.Node, m.Addr, m.Trace)
	if info, ok := c.engines[m.Node]; ok {
		if MemberState(info.state.Load()) == MemberLeft {
			return c.ep.Send(m.Node, proto.JoinAck{Node: m.Node, Accepted: false,
				Reason: "node name previously left the cluster", Trace: m.Trace})
		}
		c.heartbeat(m.Node)
		return c.ep.Send(m.Node, proto.JoinAck{Node: m.Node, Accepted: true, Trace: m.Trace})
	}
	now := c.clock.Now()
	info := &engineInfo{memSeries: stats.NewSeries(string(m.Node)), lastSeen: now}
	info.alive.Store(true)
	info.state.Store(int32(MemberJoining))
	span := c.tracer.Start(obs.SpanMembership, string(c.cfg.Node), now)
	span.SetAttr("kind", "join")
	span.SetAttr("node", string(m.Node))
	info.memberSpan = span
	c.memMu.Lock()
	c.engines[m.Node] = info
	c.memMu.Unlock()
	c.events.Add(stats.Event{T: now, Node: m.Node, Kind: stats.EventJoin, Detail: "admitted; awaiting first report"})
	c.log.Info("engine_admitted", obs.F("engine", string(m.Node)))
	return c.ep.Send(m.Node, proto.JoinAck{Node: m.Node, Accepted: true, Trace: m.Trace})
}

// learnMemberAddr records a dynamically joined engine's transport
// address, extends the coordinator's own directory (directory-based
// transports expose AddNode; in-proc ignores it), and disseminates it:
// broadcast to the split host and every current member, and a replay of
// all previously learned addresses to the joiner itself. Must run
// before the JoinAck is sent — the ack is routed by directory too.
// Idempotent per (node, addr); handler-goroutine only.
func (c *Coordinator) learnMemberAddr(node partition.NodeID, addr string, tr obs.TraceContext) {
	if addr == "" || c.memberAddrs[node] == addr {
		return
	}
	if c.memberAddrs == nil {
		c.memberAddrs = make(map[partition.NodeID]string)
	}
	c.memberAddrs[node] = addr
	if d, ok := c.net.(interface {
		AddNode(partition.NodeID, string)
	}); ok {
		d.AddNode(node, addr)
	}
	c.log.Info("member_addr", obs.F("engine", string(node)), obs.F("addr", addr))
	msg := proto.MemberAddr{Node: node, Addr: addr, Trace: tr}
	if err := c.ep.Send(c.cfg.SplitHost, msg); err != nil {
		c.fail(fmt.Errorf("member addr to split host: %w", err))
	}
	for peer, info := range c.engines {
		if peer == node || MemberState(info.state.Load()) == MemberLeft {
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
		if err := c.ep.Send(node, proto.MemberAddr{Node: other, Addr: oaddr, Trace: tr}); err != nil {
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
	if MemberState(info.state.Load()) == MemberLeft {
		return c.ep.Send(m.Node, proto.LeaveAck{Node: m.Node, Trace: m.Trace})
	}
	c.heartbeat(m.Node)
	if MemberState(info.state.Load()) != MemberDraining {
		now := c.clock.Now()
		info.state.Store(int32(MemberDraining))
		if info.memberSpan != nil {
			info.memberSpan.End(now)
		}
		span := c.tracer.Start(obs.SpanMembership, string(c.cfg.Node), now)
		span.SetAttr("kind", "leave")
		span.SetAttr("node", string(m.Node))
		info.memberSpan = span
		owned := len(c.cfg.Map.OwnedBy(m.Node))
		c.events.Add(stats.Event{T: now, Node: m.Node, Kind: stats.EventLeave,
			Detail: fmt.Sprintf("draining %d partitions", owned)})
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
		if MemberState(info.state.Load()) != MemberDraining {
			continue
		}
		if len(c.cfg.Map.OwnedBy(node)) != 0 {
			continue
		}
		now := c.clock.Now()
		info.state.Store(int32(MemberLeft))
		if info.memberSpan != nil {
			info.memberSpan.End(now)
			info.memberSpan = nil
		}
		c.mLeaves.Inc()
		c.lagMu.Lock()
		delete(c.nodeLag, node)
		c.lagMu.Unlock()
		c.events.Add(stats.Event{T: now, Node: node, Kind: stats.EventLeave, Detail: "drained; released"})
		c.log.Info("engine_left", obs.F("engine", string(node)))
		if err := c.ep.Send(node, proto.LeaveAck{Node: node}); err != nil {
			c.fail(fmt.Errorf("leave ack to %s: %w", node, err))
		}
	}
}

// maybeDrainLeaver starts a directed drain for a draining engine that
// still owns partitions: one relocation moving everything it owns to
// the emptiest remaining engine, skipping the CptV/PtV round (the
// coordinator, not the sender, chose the partitions). Returns true if
// a drain was started.
func (c *Coordinator) maybeDrainLeaver(now vclock.Time) bool {
	var leaver partition.NodeID
	for node, info := range c.engines {
		if MemberState(info.state.Load()) != MemberDraining || !info.alive.Load() {
			continue
		}
		if len(c.cfg.Map.OwnedBy(node)) == 0 {
			continue
		}
		if leaver == "" || node < leaver {
			leaver = node
		}
	}
	if leaver == "" {
		return false
	}
	var recv partition.NodeID
	var recvMem int64
	for node, info := range c.engines {
		if node == leaver || !info.alive.Load() || MemberState(info.state.Load()) != MemberActive || !info.haveReport {
			continue
		}
		if recv == "" || info.last.MemBytes < recvMem || (info.last.MemBytes == recvMem && node < recv) {
			recv, recvMem = node, info.last.MemBytes
		}
	}
	if recv == "" {
		return false // nowhere to drain to; retry next tick
	}
	parts := c.cfg.Map.OwnedBy(leaver)
	c.epoch++
	c.phase = relocWaitMarker
	c.sender, c.receiver = leaver, recv
	c.parts = parts
	c.started = now
	c.resumeAfter = false
	c.directed = true
	c.span = c.tracer.Start(obs.SpanRelocationDrain, string(c.cfg.Node), now)
	c.span.SetAttr("epoch", strconv.FormatUint(c.epoch, 10))
	c.span.SetAttr("sender", string(leaver))
	c.span.SetAttr("receiver", string(recv))
	c.span.SetAttr("reason", "drain")
	c.span.SetAttr("partitions", strconv.Itoa(len(parts)))
	c.span.Step(obs.StepPause, now)
	c.beginPhase(obs.SpanRelocWaitMarker, now)
	c.log.Info("drain_started", obs.FUint("epoch", c.epoch), obs.F("leaver", string(leaver)),
		obs.F("receiver", string(recv)), obs.FInt("partitions", int64(len(parts))))
	if err := c.sendStep(c.cfg.SplitHost, proto.Pause{Epoch: c.epoch, Partitions: parts, Owner: leaver, Trace: c.span.Context()}); err != nil {
		c.fail(err)
	}
	return true
}

// maybeShedToJoiner rebalances onto an active engine that owns nothing
// (a fresh joiner, or a flap victim demoted of everything): the fullest
// engine sheds its least productive groups, sized to level it with the
// cluster mean — Bala-Join's cost framing, cheap state warms the
// newcomer without disturbing hot groups. Returns true if a rebalance
// was started.
func (c *Coordinator) maybeShedToJoiner(now vclock.Time) bool {
	var joiner partition.NodeID
	for node, info := range c.engines {
		if MemberState(info.state.Load()) != MemberActive || !info.alive.Load() || !info.haveReport {
			continue
		}
		if len(c.cfg.Map.OwnedBy(node)) != 0 {
			continue
		}
		if joiner == "" || node < joiner {
			joiner = node
		}
	}
	if joiner == "" {
		return false
	}
	var sender partition.NodeID
	var senderMem, total int64
	n := 0
	for node, info := range c.engines {
		if MemberState(info.state.Load()) != MemberActive || !info.alive.Load() || !info.haveReport {
			continue
		}
		total += info.last.MemBytes
		n++
		if node == joiner || len(c.cfg.Map.OwnedBy(node)) == 0 {
			continue
		}
		if sender == "" || info.last.MemBytes > senderMem || (info.last.MemBytes == senderMem && node < sender) {
			sender, senderMem = node, info.last.MemBytes
		}
	}
	if sender == "" || n == 0 {
		return false
	}
	amount := senderMem - total/int64(n)
	if amount <= 0 {
		return false // the joiner's share would be empty; leave it be
	}
	if err := c.startRelocation(&core.Relocation{Sender: sender, Receiver: joiner, Amount: amount, LowProd: true}); err != nil {
		c.fail(err)
	}
	return true
}

// followerFor picks a primary's follower: the next active engine after
// it in name order, wrapping — deterministic, spreading followers
// across the ring without extra state (the influxdb-ha shape).
func followerFor(ring []partition.NodeID, primary partition.NodeID) partition.NodeID {
	for _, n := range ring {
		if n > primary {
			return n
		}
	}
	if len(ring) > 0 && ring[0] != primary {
		return ring[0]
	}
	if len(ring) > 1 {
		return ring[1]
	}
	return ""
}

// broadcastReplicaMap recomputes the desired follower assignment and
// broadcasts it to every live engine. The version bumps only when the
// assignment changes, but the current map is re-sent on every tick:
// engines apply only newer versions, so a lost broadcast self-heals
// without churn.
func (c *Coordinator) broadcastReplicaMap() {
	ring := make([]partition.NodeID, 0, len(c.engines))
	for node, info := range c.engines {
		if info.alive.Load() && MemberState(info.state.Load()) == MemberActive {
			ring = append(ring, node)
		}
	}
	if len(ring) < 2 {
		return // nobody can follow for anybody
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
	entries := make([]proto.ReplicaEntry, 0, c.cfg.Map.N())
	for id := 0; id < c.cfg.Map.N(); id++ {
		pid := partition.ID(id)
		owner, err := c.cfg.Map.Owner(pid)
		if err != nil {
			continue
		}
		if f := followerFor(ring, owner); f != "" {
			entries = append(entries, proto.ReplicaEntry{Group: pid, Primary: owner, Follower: f})
		}
	}
	changed := len(entries) != len(c.replEntries)
	if !changed {
		for i := range entries {
			if entries[i] != c.replEntries[i] {
				changed = true
				break
			}
		}
	}
	if changed {
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
		if !info.alive.Load() || MemberState(info.state.Load()) == MemberLeft {
			continue
		}
		if err := c.ep.Send(node, msg); err != nil {
			c.fail(fmt.Errorf("replica map to %s: %w", node, err))
		}
	}
}

// maybePromote fails a dead engine's groups over to their followers:
// sequential Promote steps (one per follower), one map commit of every
// acked step, then sequential split-host remaps. Groups whose follower
// is itself unreachable stay paused and are retried on a later tick.
// Returns true if a promotion was started.
func (c *Coordinator) maybePromote(now vclock.Time) bool {
	if c.promo != nil {
		return false
	}
	victims := make([]partition.NodeID, 0, len(c.engines))
	for node, info := range c.engines {
		if !info.alive.Load() && MemberState(info.state.Load()) != MemberLeft {
			victims = append(victims, node)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, node := range victims {
		info := c.engines[node]
		owned := c.cfg.Map.OwnedBy(node)
		if len(owned) == 0 {
			continue
		}
		byFollower := make(map[partition.NodeID][]partition.ID)
		for _, id := range owned {
			f, ok := c.replAssign[id]
			if !ok {
				continue
			}
			finfo, ok := c.engines[f]
			if !ok || !finfo.alive.Load() || MemberState(finfo.state.Load()) != MemberActive {
				continue
			}
			byFollower[f] = append(byFollower[f], id)
		}
		if len(byFollower) == 0 {
			continue // no live follower yet; retry next tick
		}
		followers := make([]partition.NodeID, 0, len(byFollower))
		for f := range byFollower {
			followers = append(followers, f)
		}
		sort.Slice(followers, func(i, j int) bool { return followers[i] < followers[j] })
		steps := make([]*promoStep, 0, len(followers))
		for _, f := range followers {
			parts := byFollower[f]
			sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
			steps = append(steps, &promoStep{to: f, groups: parts})
		}
		span := c.tracer.Start(obs.SpanPromotion, string(c.cfg.Node), info.diedAt)
		span.SetAttr("victim", string(node))
		span.SetAttr("partitions", strconv.Itoa(len(owned)))
		span.SetAttr("followers", strconv.Itoa(len(steps)))
		span.Step(obs.StepDeathDetected, info.diedAt)
		c.promo = &promoState{victim: node, deathAt: info.diedAt, steps: steps, span: span}
		c.phase = promoWaitAck
		c.log.Info("promotion_started", obs.F("victim", string(node)),
			obs.FInt("partitions", int64(len(owned))), obs.FInt("followers", int64(len(steps))))
		c.sendPromoteStep(now)
		return true
	}
	return false
}

// sendPromoteStep issues the current promotion step under a fresh
// epoch, so acks duplicated by the network miss the epoch check
// instead of double-advancing the sequential machine.
func (c *Coordinator) sendPromoteStep(now vclock.Time) {
	p := c.promo
	step := p.steps[p.idx]
	c.epoch++
	p.span.Step(obs.StepPromoteSent, now)
	if err := c.sendStep(step.to, proto.Promote{Epoch: c.epoch, From: p.victim, Groups: step.groups, Trace: p.span.Context()}); err != nil {
		c.fail(fmt.Errorf("promote step to %s: %w", step.to, err))
	}
}

// onPromoteAck advances the sequential promotion machine.
func (c *Coordinator) onPromoteAck(m proto.PromoteAck) error {
	if c.phase != promoWaitAck || c.promo == nil || m.Epoch != c.epoch {
		return nil // stale or duplicated ack
	}
	p := c.promo
	if m.Node != p.steps[p.idx].to {
		return nil
	}
	now := c.clock.Now()
	p.steps[p.idx].acked = true
	p.span.Step(obs.StepPromoteAcked, now)
	c.disarm()
	p.idx++
	if p.idx < len(p.steps) {
		c.sendPromoteStep(now)
		return nil
	}
	return c.commitPromotion(now)
}

// commitPromotion moves every acked step's groups to its follower in
// the master map — the commit point: from here the failover only moves
// forward, mirroring the post-map-commit escalation rules — then
// starts the split-host remap sequence.
func (c *Coordinator) commitPromotion(now vclock.Time) error {
	p := c.promo
	var moved []partition.ID
	for _, s := range p.steps {
		if !s.acked {
			continue
		}
		if _, err := c.cfg.Map.Move(s.groups, s.to); err != nil {
			c.fail(fmt.Errorf("promotion map commit for %s: %w", s.to, err))
			s.acked = false
			continue
		}
		moved = append(moved, s.groups...)
	}
	if len(moved) == 0 {
		p.span.Abort(now, "no step promoted")
		c.mUnresolved.Inc()
		c.promo = nil
		c.disarm()
		c.phase = relocIdle
		c.becameIdle()
		return fmt.Errorf("promotion of %s: no follower reachable", p.victim)
	}
	p.committed = true
	p.span.Step(obs.StepMapCommitted, now)
	c.pendingDemotes[p.victim] = append(c.pendingDemotes[p.victim], moved...)
	c.updateDemoteCount()
	if info, ok := c.engines[p.victim]; ok && info.alive.Load() {
		c.queueDemote(p.victim)
	}
	c.phase = promoWaitRemap
	p.idx = 0
	if !c.advanceToAckedStep() {
		return c.finishPromotion(now)
	}
	c.sendPromoRemap(now)
	return nil
}

// advanceToAckedStep skips unacked steps in the remap sequence,
// reporting whether one remains.
func (c *Coordinator) advanceToAckedStep() bool {
	p := c.promo
	for p.idx < len(p.steps) && !p.steps[p.idx].acked {
		p.idx++
	}
	return p.idx < len(p.steps)
}

// sendPromoRemap remaps the split host for the current promoted step
// under a fresh epoch.
func (c *Coordinator) sendPromoRemap(now vclock.Time) {
	p := c.promo
	step := p.steps[p.idx]
	c.epoch++
	p.span.Step(obs.StepRemapSent, now)
	if err := c.sendStep(c.cfg.SplitHost, proto.Remap{
		Epoch: c.epoch, Partitions: step.groups, Owner: step.to, Version: c.cfg.Map.Version(),
		Trace: p.span.Context(),
	}); err != nil {
		c.fail(fmt.Errorf("promotion remap: %w", err))
	}
}

// finishPromotion closes out a failover: latency histogram (virtual
// seconds, watchdog death to last remap ack), event, and — if the
// victim revived mid-flight — queueing its demotion and releasing
// whatever it still owns.
func (c *Coordinator) finishPromotion(now vclock.Time) error {
	p := c.promo
	promoted := 0
	for _, s := range p.steps {
		if s.acked {
			promoted += len(s.groups)
		}
	}
	p.span.SetAttr("promoted", strconv.Itoa(promoted))
	p.span.End(now)
	c.mPromotions.Inc()
	c.mPromoSecs.ObserveDuration(now.Sub(p.deathAt))
	c.events.Add(stats.Event{T: now, Node: p.victim, Kind: stats.EventPromote,
		Detail: fmt.Sprintf("%d groups failed over in %s", promoted, now.Sub(p.deathAt))})
	c.log.Info("promotion_complete", obs.F("victim", string(p.victim)),
		obs.FInt("groups", int64(promoted)), obs.F("latency", now.Sub(p.deathAt).String()))
	victim := p.victim
	c.promo = nil
	c.disarm()
	c.phase = relocIdle
	if info, ok := c.engines[victim]; ok && info.alive.Load() {
		c.queueDemote(victim)
		c.resumePartitions(victim, "revived during promotion")
	}
	c.becameIdle()
	return nil
}

// queueDemote sends a revived engine the Demote for groups failed over
// away from it while it was presumed dead, tracked until DemoteAck.
func (c *Coordinator) queueDemote(node partition.NodeID) {
	parts := c.pendingDemotes[node]
	if len(parts) == 0 {
		return
	}
	delete(c.pendingDemotes, node)
	c.epoch++
	c.demotes[c.epoch] = &demoteState{node: node, parts: parts}
	c.updateDemoteCount()
	c.log.Info("demote_sent", obs.F("engine", string(node)),
		obs.FInt("groups", int64(len(parts))), obs.FUint("epoch", c.epoch))
	if err := c.ep.Send(node, proto.Demote{Epoch: c.epoch, Groups: parts}); err != nil {
		c.fail(fmt.Errorf("demote %s: %w", node, err))
	}
}

// retryDemotes re-sends pending Demotes on the lb tick until
// acknowledged or abandoned, mirroring retryResumes.
func (c *Coordinator) retryDemotes() {
	for epoch, d := range c.demotes {
		d.attempts++
		if d.attempts > demoteMaxRetries {
			delete(c.demotes, epoch)
			c.updateDemoteCount()
			c.mUnresolved.Inc()
			c.fail(fmt.Errorf("demotion of %s (epoch %d) unacknowledged after %d attempts", d.node, epoch, d.attempts-1))
			c.becameIdle()
			continue
		}
		if err := c.ep.Send(d.node, proto.Demote{Epoch: epoch, Groups: d.parts}); err != nil {
			c.fail(fmt.Errorf("demote retry: %w", err))
		}
	}
}

// onDemoteAck completes a demotion.
func (c *Coordinator) onDemoteAck(m proto.DemoteAck) {
	d, ok := c.demotes[m.Epoch]
	if !ok {
		return // stale or duplicated
	}
	delete(c.demotes, m.Epoch)
	c.updateDemoteCount()
	c.mDemotions.Inc()
	c.events.Add(stats.Event{T: c.clock.Now(), Node: d.node, Kind: stats.EventDemote,
		Detail: fmt.Sprintf("%d groups dropped after failover", len(d.parts))})
	c.log.Info("demotion_complete", obs.F("engine", string(d.node)), obs.FInt("groups", int64(len(d.parts))))
	c.becameIdle()
}

// updateDemoteCount refreshes the accessor-visible demote counter.
func (c *Coordinator) updateDemoteCount() {
	c.demoteCount.Store(int64(len(c.demotes) + len(c.pendingDemotes)))
}

func (c *Coordinator) shutdown() {
	c.stopped = true
	if c.ticker != nil {
		c.ticker.Stop()
	}
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
