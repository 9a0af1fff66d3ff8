// Membership chaos experiments: drive the elastic-membership plane —
// runtime join with rebalance, graceful leave with drain, and
// watchdog-triggered follower promotion — under a fault-injecting
// transport, and assert the exactness invariant survives. Replication
// runs at factor 2 (every partition group has one warm follower) and is
// spill-aware: seeds carry disk segments, spill markers demote the
// follower's standby into its local store, and the spilled-failover
// scenario kills a primary after a spill and requires the promoted
// follower's cleanup to recover the disk-resident fraction exactly
// (see PROTOCOL.md, "Membership & replication").
//
// Each scenario is a deterministic script over the virtual clock. The
// fences matter: before a failover the script drains the data path and
// awaits ReplicationSettled, so the follower's standby provably holds
// everything the victim held — the promotion is then lossless from the
// warm standby alone.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/transport/faulty"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// membershipPhase is the virtual length of each feeding phase; every
// scenario feeds two phases with the membership transition in between.
const membershipPhase = time.Minute

// membershipClusterConfig is the shared cluster shape of the
// membership scenarios: replication factor 2, no strategy-driven
// adaptation (the membership machinery itself relocates), and a
// watchdog tuned like the crash-recovery scenario so a healthy engine
// under -race contention is never spuriously declared dead.
func membershipClusterConfig(engines []partition.NodeID, wl workload.Config) cluster.Config {
	return cluster.Config{
		Engines:          engines,
		Workload:         wl,
		Strategy:         core.NoAdapt{},
		Materialize:      true,
		Replicate:        true,
		Scale:            600,
		Duration:         2 * membershipPhase,
		StatsInterval:    5 * time.Second,
		LBInterval:       5 * time.Second,
		HeartbeatTimeout: 60 * time.Second,
		RelocTimeout:     30 * time.Second,
	}
}

// membershipCluster builds and starts the scripted cluster over a
// faulty transport (tune, if not nil, adjusts the shared config first;
// a Network it sets is the transport the faults wrap, in-process
// otherwise). stop releases both.
func membershipCluster(engines []partition.NodeID, faults faulty.Config, tune func(*cluster.Config)) (c *cluster.Cluster, fnet *faulty.Network, stop func(), err error) {
	cfg := membershipClusterConfig(engines, chaosWorkload())
	if tune != nil {
		tune(&cfg)
	}
	if cfg.Network == nil {
		cfg.Network = transport.NewInproc()
	}
	fnet = faulty.New(cfg.Network, vclock.NewScaled(cfg.Scale), faults)
	cfg.Network = fnet
	if c, err = cluster.New(cfg); err == nil {
		err = c.Start()
	}
	if err != nil {
		fnet.Close()
		return nil, nil, nil, err
	}
	return c, fnet, func() { c.Close(); fnet.Close() }, nil
}

// settle fences the data path so replication can settle: after it every
// byte a primary holds is also in its follower's standby.
func settle(c *cluster.Cluster) error {
	if err := c.Drain(); err != nil {
		return err
	}
	if !c.Await(30*time.Second, c.ReplicationSettled) {
		return fmt.Errorf("replication never settled (lag %d bytes)", c.ReplicationLagTotal())
	}
	return nil
}

// finishMembership runs the common tail of every scenario: quiesce the
// coordinator, drain the data path, run the cleanup phase if the
// scenario spilled, and collect the result.
func finishMembership(c *cluster.Cluster, cleanup bool) (*cluster.Result, error) {
	if err := c.Quiesce(); err != nil {
		return nil, err
	}
	if err := c.Drain(); err != nil {
		return nil, err
	}
	if cleanup {
		if err := c.RunCleanup(); err != nil {
			return nil, err
		}
	}
	return c.Finish()
}

// RunMembershipBaseline is the fault-free twin every membership
// scenario compares against: same workload and total feed duration on
// two static engines, no faults, no membership transitions. The join
// result set is placement-independent, so one baseline serves all
// scenarios regardless of their engine counts.
func RunMembershipBaseline() (*cluster.Result, error) {
	cfg := membershipClusterConfig([]partition.NodeID{"e1", "e2"}, chaosWorkload())
	cfg.Replicate = false
	return cluster.Run(cfg)
}

// RunChaosJoin scripts a runtime join under faults: feed phase 1 on
// two engines, hot-add e3 (JoinRequest/JoinAck handshake), await its
// admission and the rebalance that sheds state onto it, then feed
// phase 2. The result must match the fault-free baseline exactly.
func RunChaosJoin(faults faulty.Config) (*cluster.Result, error) {
	c, _, stop, err := membershipCluster([]partition.NodeID{"e1", "e2"}, faults, nil)
	if err != nil {
		return nil, err
	}
	defer stop()
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	joiner := partition.NodeID("e3")
	if err := c.Join(joiner); err != nil {
		return nil, err
	}
	if !c.Await(30*time.Second, func() bool {
		return c.Membership()[joiner] == "active" && c.Owned(joiner) > 0 && c.PartitionsPaused() == 0
	}) {
		return nil, fmt.Errorf("joiner %s never admitted and rebalanced (membership %v, owns %d)",
			joiner, c.Membership(), c.Owned(joiner))
	}
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	return finishMembership(c, false)
}

// RunChaosLeave scripts a graceful departure under faults: feed
// phase 1 on three engines, ask e3 to leave, await the coordinator's
// directed drain of its partition groups and the LeaveAck, then feed
// phase 2 on the survivors.
func RunChaosLeave(faults faulty.Config) (*cluster.Result, error) {
	c, _, stop, err := membershipCluster([]partition.NodeID{"e1", "e2", "e3"}, faults, nil)
	if err != nil {
		return nil, err
	}
	defer stop()
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	leaver := partition.NodeID("e3")
	if err := c.Leave(leaver); err != nil {
		return nil, err
	}
	if !c.Await(30*time.Second, func() bool {
		return c.EngineLeft(leaver) && c.Owned(leaver) == 0 && c.PartitionsPaused() == 0
	}) {
		return nil, fmt.Errorf("leaver %s never drained (membership %v, owns %d)",
			leaver, c.Membership(), c.Owned(leaver))
	}
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	return finishMembership(c, false)
}

// RunChaosPromote scripts the fast-failover path under faults: feed
// phase 1, fence the data path and await ReplicationSettled (the
// followers' standby copies provably hold everything), crash e2, await
// the watchdog death and the follower promotion that re-homes its
// groups onto e1 from its warm standby, then feed phase 2.
func RunChaosPromote(faults faulty.Config) (*cluster.Result, error) {
	return runChaosPromoteOver(transport.NewInproc(), faults)
}

func runChaosPromoteOver(inner transport.Network, faults faulty.Config) (*cluster.Result, error) {
	c, _, stop, err := membershipCluster([]partition.NodeID{"e1", "e2"}, faults,
		func(cfg *cluster.Config) { cfg.Network = inner })
	if err != nil {
		return nil, err
	}
	defer stop()
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	if err := settle(c); err != nil {
		return nil, err
	}
	if err := failOver(c, "e2", 1); err != nil {
		return nil, err
	}
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	return finishMembership(c, false)
}

// SpilledFailoverResult carries the spilled-failover run, its
// fault-free baseline, and the evidence the scenario's assertions need:
// the victim demonstrably spilled before it was killed, and the
// promoted survivor's cleanup demonstrably merged disk segments.
type SpilledFailoverResult struct {
	Res      *cluster.Result
	Baseline *cluster.Result
	// VictimSpilledBytes / VictimSegments are the victim's disk tier
	// after the fence before the crash (settleSpilled).
	VictimSpilledBytes int64
	VictimSegments     int
	// SurvivorCleanupSegments is how many disk segments the surviving
	// engine's cleanup merged — it must include the segments adopted
	// from the victim's replicated standby.
	SurvivorCleanupSegments int
	// Logs holds the coordinator's and both engines' log entries, for a
	// failed run to show whether an unscripted death came first.
	Logs []obs.LogEntry
}

// spilledFailoverSpill is the local-overflow configuration of the
// spilled-failover scenario: a threshold far below the workload's
// resident footprint, so both engines spill several generations during
// phase 1 and the victim is guaranteed to hold disk segments when it is
// killed.
func spilledFailoverSpill() core.SpillConfig {
	return core.SpillConfig{MemThreshold: 16 << 10, Fraction: 0.4}
}

// spilledCluster starts the cluster the spilling scenarios script: the
// engines with local spills on and file-backed stores under storeDir.
func spilledCluster(engines []partition.NodeID, storeDir string, faults faulty.Config, heartbeat time.Duration) (*cluster.Cluster, func(), error) {
	c, _, stop, err := membershipCluster(engines, faults, func(cfg *cluster.Config) {
		cfg.LocalSpill = true
		cfg.Spill = spilledFailoverSpill()
		cfg.StoreDir = storeDir
		if heartbeat > 0 {
			cfg.HeartbeatTimeout = heartbeat
		}
	})
	return c, stop, err
}

// settleSpilled waits until victim holds disk segments — that spilled
// fraction is exactly what the tiered standby exists to preserve — then
// settles: the fence counts spilled bytes too, so after it the
// follower's standby holds the victim's memory tier and all of its
// segments. It returns the victim's disk tier after the fence, as its
// current life's metrics count it (race-safe while the cluster runs):
// the bytes its spills moved and the segments its last stats report saw.
func settleSpilled(c *cluster.Cluster, victim partition.NodeID) (spilled int64, segments int, err error) {
	reg := c.Engine(victim).Registry()
	tier := func() (int64, int) {
		return int64(reg.Sum("distq_engine_spill_bytes_total")), int(reg.Sum("distq_engine_disk_segments"))
	}
	if !c.Await(30*time.Second, func() bool { b, s := tier(); return b > 0 && s > 0 }) {
		spilled, segments = tier()
		return 0, 0, fmt.Errorf("victim %s never spilled (%d bytes, %d segments)", victim, spilled, segments)
	}
	err = settle(c)
	spilled, segments = tier()
	return spilled, segments, err
}

// failOver crashes victim and awaits the run's n-th promotion.
func failOver(c *cluster.Cluster, victim partition.NodeID, n int) error {
	if err := c.Crash(victim); err != nil {
		return err
	}
	if !c.Await(30*time.Second, func() bool { return c.Promotions() >= n && c.PartitionsPaused() == 0 }) {
		return fmt.Errorf("promotion %d never completed (promotions %d, paused %d, membership %v, errors %v)",
			n, c.Promotions(), c.PartitionsPaused(), c.Membership(), c.Errors())
	}
	return nil
}

// RunChaosSpilledFailover scripts the failover-with-disk-state path
// under seeded faults: feed phase 1 with local spills on (file-backed
// stores under storeDir), await the victim's spill, fence the data path
// and await ReplicationSettled — the follower's standby now holds the
// victim's memory tier AND its disk segments — kill the victim, await
// the promotion, feed phase 2, and run the cleanup phase. The union of
// runtime and cleanup results must match the fault-free baseline
// exactly: before segments replicated, this scenario demonstrably lost
// the victim's spilled fraction.
func RunChaosSpilledFailover(storeDir string, faults faulty.Config) (*SpilledFailoverResult, error) {
	c, stop, err := spilledCluster([]partition.NodeID{"e1", "e2"}, storeDir, faults, 0)
	if err != nil {
		return nil, err
	}
	defer stop()
	victim, survivor := partition.NodeID("e2"), partition.NodeID("e1")
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	victimBytes, victimSegments, err := settleSpilled(c, victim)
	if err != nil {
		return nil, err
	}
	if err := failOver(c, victim, 1); err != nil {
		return nil, err
	}
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	res, err := finishMembership(c, true)
	if err != nil {
		return nil, err
	}
	baseline, err := runSpilledBaseline(2)
	if err != nil {
		return nil, err
	}
	return &SpilledFailoverResult{
		Res:                     res,
		Baseline:                baseline,
		VictimSpilledBytes:      victimBytes,
		VictimSegments:          victimSegments,
		SurvivorCleanupSegments: res.Cleanup.PerNode[survivor].Segments,
		Logs: append(append(c.Coordinator().Logger().Recent(0),
			c.Engine(victim).Logger().Recent(0)...), c.Engine(survivor).Logger().Recent(0)...),
	}, nil
}

// runSpilledBaseline is the fault-free twin of the spilling failover
// scenarios: the same workload fed for the given number of phases on
// two static engines with local spills and a cleanup phase, no
// replication, no membership transitions.
func runSpilledBaseline(phases int) (*cluster.Result, error) {
	b := membershipClusterConfig([]partition.NodeID{"e1", "e2"}, chaosWorkload())
	b.Duration = time.Duration(phases) * membershipPhase
	b.Replicate = false
	b.LocalSpill = true
	b.Spill = spilledFailoverSpill()
	b.RunCleanup = true
	return cluster.Run(b)
}

// CrashRecoveryResult carries the restart-reseed run, its fault-free
// baseline, and the evidence its assertions need.
type CrashRecoveryResult struct {
	Res      *cluster.Result
	Baseline *cluster.Result
	// VictimSegments is what the restarted engine's reopened store still
	// held: its disk tier after the fence before the crash
	// (settleSpilled).
	VictimSegments int
	// RejoinDemote is the attributes of the restarted engine's
	// groups_demoted log entry; they end with what the engine held
	// afterwards.
	RejoinDemote string
	// Groups owned by the restarted engine just before the second crash
	// and after the promotion that followed it, and by the second
	// victim when it died.
	RejoinerOwnedBefore, RejoinerOwnedAfter, SecondVictimOwned int
}

// RunCrashRecovery scripts cold restart as "rejoin empty and be seeded
// again", on the spilled-failover cluster with a third engine: feed,
// settle, crash e2 (its groups fail over to e3, next on the follower
// ring), restart e2 over its store directory — it restores nothing; the
// coordinator demotes the groups it lost, which drops the stale segments
// the reopened store still holds, sheds state onto it as onto a joiner,
// and e1 seeds it as its follower again — feed, settle, then crash e1,
// whose groups now fail over to the restarted e2. Feed once more and run
// cleanup. Runtime ∪ cleanup results must match the fault-free baseline
// exactly, which they can only do if the second failover found a
// complete standby on an engine that started its second life empty.
func RunCrashRecovery(storeDir string, faults faulty.Config) (*CrashRecoveryResult, error) {
	// Promoting every group of an engine means writing its standby
	// segments as files, which under -race can keep a handler busy past
	// the other scenarios' 100 ms (wall) of heartbeat grace. A spurious
	// death here is a second simultaneous failure, which factor-2
	// replication does not promise to survive, so this scenario waits
	// longer before it believes one.
	c, stop, err := spilledCluster([]partition.NodeID{"e1", "e2", "e3"}, storeDir, faults, 3*time.Minute)
	if err != nil {
		return nil, err
	}
	defer stop()
	rejoiner, follower, second := partition.NodeID("e2"), partition.NodeID("e3"), partition.NodeID("e1")
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	// The first victim's segments stay behind in its store directory:
	// the restart reopens that store.
	_, victimSegments, err := settleSpilled(c, rejoiner)
	if err != nil {
		return nil, err
	}
	out := &CrashRecoveryResult{VictimSegments: victimSegments}
	want := c.Owned(follower) + c.Owned(rejoiner)
	if err := failOver(c, rejoiner, 1); err != nil {
		return nil, err
	}
	if got := c.Owned(follower); got != want {
		return nil, fmt.Errorf("first failover: %s owns %d groups, want its own and %s's, %d", follower, got, rejoiner, want)
	}

	if err := c.Restart(rejoiner); err != nil {
		return nil, err
	}
	if !c.Await(30*time.Second, func() bool {
		return c.EngineAlive(rejoiner) && c.Demotions() >= 1 && c.PendingDemotes() == 0 && c.PendingResumes() == 0
	}) {
		return nil, fmt.Errorf("restarted %s never demoted (alive %v, demotions %d, pending %d)",
			rejoiner, c.EngineAlive(rejoiner), c.Demotions(), c.PendingDemotes())
	}
	// The restarted engine owns nothing, so the coordinator may shed
	// state onto it like onto a joiner. The second kill must not race
	// that relocation (an engine dying mid-relocation is another
	// scenario): wait for it to land, or for the wait to lapse if the
	// planner found nothing worth moving, then idle a beat.
	c.Await(5*time.Second, func() bool { return c.Owned(rejoiner) > 0 && c.PartitionsPaused() == 0 })
	c.Idle(10 * time.Second) // two lb ticks
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	if _, _, err := settleSpilled(c, second); err != nil {
		return nil, fmt.Errorf("after the restart: %w", err)
	}
	// A shed that started late must not be caught between shipping its
	// state and its Remap; partitions are paused for exactly that span.
	if !c.Await(30*time.Second, func() bool { return c.PartitionsPaused() == 0 }) {
		return nil, fmt.Errorf("%d partitions still paused before the second crash", c.PartitionsPaused())
	}
	out.RejoinerOwnedBefore, out.SecondVictimOwned = c.Owned(rejoiner), c.Owned(second)
	if err := failOver(c, second, 2); err != nil {
		return nil, err
	}
	out.RejoinerOwnedAfter = c.Owned(rejoiner)
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	if out.Res, err = finishMembership(c, true); err != nil {
		return nil, err
	}
	for _, le := range c.Engine(rejoiner).Logger().Recent(0) {
		if le.Event == "groups_demoted" {
			out.RejoinDemote = le.Attrs
		}
	}
	if out.Baseline, err = runSpilledBaseline(3); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckSpilledFailoverExactness compares the spilled-failover run
// against its baseline on the union of runtime and cleanup results:
// which phase produces a match shifts with spill and failover timing,
// but the union is invariant, and a lost spilled fraction shows up as
// baseline results missing from it.
func CheckSpilledFailoverExactness(res, baseline *cluster.Result) []string {
	var bad []string
	if res.Generated != baseline.Generated {
		bad = append(bad, fmt.Sprintf("generated %d tuples, baseline %d", res.Generated, baseline.Generated))
	}
	if res.Duplicates != 0 {
		bad = append(bad, fmt.Sprintf("%d duplicate results", res.Duplicates))
	}
	if res.RuntimeSet == nil || res.CleanupSet == nil || baseline.RuntimeSet == nil || baseline.CleanupSet == nil {
		bad = append(bad, "missing materialized result sets")
		return bad
	}
	got := res.RuntimeSet.Union(res.CleanupSet)
	want := baseline.RuntimeSet.Union(baseline.CleanupSet)
	if miss := want.Diff(got); len(miss) > 0 {
		bad = append(bad, fmt.Sprintf("%d baseline results missing (first: %s)", len(miss), miss[0]))
	}
	if extra := got.Diff(want); len(extra) > 0 {
		bad = append(bad, fmt.Sprintf("%d extra results not in baseline (first: %s)", len(extra), extra[0]))
	}
	return bad
}

// CheckMembershipExactness is CheckExactness minus the
// unresolved-relocation counter. A promotion step that times out under
// a wall-clock stall is escalated commit-forward and retried by a
// later watchdog tick — the counter records the stall, not a loss —
// so the materialized result-set comparison stays the authoritative
// loss/duplicate oracle for membership scenarios.
func CheckMembershipExactness(res, baseline *cluster.Result) []string {
	var bad []string
	for _, v := range CheckExactness(res, baseline) {
		if strings.Contains(v, "unresolved relocations") {
			continue
		}
		bad = append(bad, v)
	}
	return bad
}

// RunChaosFlap scripts the heartbeat-flap scenario: the victim is not
// killed but isolated, so the watchdog declares it dead and the
// coordinator promotes its followers — then the victim revives while
// the promotion's demote is still outstanding. The revived stale copy
// must be demoted cleanly (its state dropped, never resumed), and the
// result set must stay exact: no duplicates from the stale copy, no
// losses from the failover.
func RunChaosFlap(faults faulty.Config) (*cluster.Result, error) {
	c, fnet, stop, err := membershipCluster([]partition.NodeID{"e1", "e2"}, faults, nil)
	if err != nil {
		return nil, err
	}
	defer stop()
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	if err := settle(c); err != nil {
		return nil, err
	}
	victim := partition.NodeID("e2")
	// Isolate, don't crash: the victim keeps running and heartbeating
	// into a void, so the watchdog declares it dead and promotion
	// starts while the process is still alive.
	fnet.Isolate(victim)
	if !c.Await(30*time.Second, func() bool { return c.PendingDemotes() > 0 }) {
		return nil, fmt.Errorf("promotion never committed a map for isolated %s (promotions %d)",
			victim, c.Promotions())
	}
	// Revive mid-promotion: the map is committed (the pending demote
	// proves it) but the victim has not been demoted yet. Its next
	// heartbeat must trigger the demote, never a resume.
	fnet.Restore(victim)
	if !c.Await(30*time.Second, func() bool {
		return c.Promotions() >= 1 && c.Demotions() >= 1 && c.PendingDemotes() == 0 && c.PartitionsPaused() == 0
	}) {
		return nil, fmt.Errorf("revived %s never demoted cleanly (promotions %d, demotions %d, pending %d)",
			victim, c.Promotions(), c.Demotions(), c.PendingDemotes())
	}
	if err := c.Feed(membershipPhase); err != nil {
		return nil, err
	}
	return finishMembership(c, false)
}
