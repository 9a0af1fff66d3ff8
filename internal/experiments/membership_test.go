package experiments

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/transport/faulty"
)

// membershipFaults is the seeded drop/dup/delay schedule every
// membership scenario runs under: all the join/leave/replication/
// promotion control messages are fault-eligible, so the scenarios
// exercise their retry, rebroadcast, and retransmission layers.
func membershipFaults(seed int64) faulty.Config {
	return faulty.Config{
		Seed:      seed,
		DropProb:  0.03,
		DupProb:   0.03,
		DelayProb: 0.05,
	}
}

// membershipBaseline computes the fault-free twin once per test binary.
var membershipBaselineRes *cluster.Result

func membershipBaseline(t *testing.T) *cluster.Result {
	t.Helper()
	if membershipBaselineRes == nil {
		res, err := RunMembershipBaseline()
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		membershipBaselineRes = res
	}
	return membershipBaselineRes
}

func assertMembershipExact(t *testing.T, res *cluster.Result) {
	t.Helper()
	for _, v := range CheckMembershipExactness(res, membershipBaseline(t)) {
		t.Error(v)
	}
}

// TestChaosJoinExact hot-adds an engine under seeded faults: the
// JoinRequest/JoinAck handshake must survive drops (jittered retry),
// the rebalance must shed state onto the joiner, and the result set
// must match the fault-free baseline exactly.
func TestChaosJoinExact(t *testing.T) {
	res, err := RunChaosJoin(membershipFaults(11))
	if err != nil {
		t.Fatalf("join run hung or failed: %v", err)
	}
	assertMembershipExact(t, res)
	if res.Counter("distq_coordinator_member_joins_total") == 0 {
		t.Error("no member join counted")
	}
	if res.Relocations == 0 {
		t.Error("joiner admitted but no rebalance relocation completed")
	}
	t.Logf("join: relocations=%d retries=%d generated=%d results=%d",
		res.Relocations, retryCount(res), res.Generated, res.RuntimeSet.Len())
}

// TestChaosLeaveExact drains a departing engine under seeded faults:
// the coordinator's directed drain must move every group off the
// leaver (no CptV/PtV round; one relocation_drain trace), release it
// with LeaveAck, and keep the result set exact.
func TestChaosLeaveExact(t *testing.T) {
	res, err := RunChaosLeave(membershipFaults(13))
	if err != nil {
		t.Fatalf("leave run hung or failed: %v", err)
	}
	assertMembershipExact(t, res)
	if res.Counter("distq_coordinator_member_leaves_total") == 0 {
		t.Error("no member leave counted")
	}
	drains := trace.ByName(trace.Build(res.Spans), obs.SpanRelocationDrain)
	if len(drains) == 0 {
		t.Error("no relocation_drain trace recorded for the departure")
	}
	t.Logf("leave: drains=%d retries=%d generated=%d results=%d",
		len(drains), retryCount(res), res.Generated, res.RuntimeSet.Len())
}

// TestChaosPromoteExact kills an engine after replication settles and
// asserts the fast-failover contract: the follower is promoted from
// its warm standby, the promotion latency
// lands in the distq_coordinator_promotion_seconds histogram, the
// death -> promote -> remap sequence reassembles into a single trace
// tree, and the result set stays exact under seeded faults.
func TestChaosPromoteExact(t *testing.T) {
	res, err := RunChaosPromote(membershipFaults(17))
	if err != nil {
		t.Fatalf("promote run hung or failed: %v", err)
	}
	assertMembershipExact(t, res)
	if res.Promotions == 0 {
		t.Fatal("no promotion completed")
	}

	// Promotion latency is observable: the coordinator's histogram has
	// at least one observation.
	histSeen := false
	for _, mv := range res.Metrics {
		if mv.Name == "distq_coordinator_promotion_seconds" && mv.Count > 0 {
			histSeen = true
		}
	}
	if !histSeen {
		t.Error("distq_coordinator_promotion_seconds histogram has no observations")
	}

	// The whole failover reassembles into trace trees: one completed
	// tree per counted promotion — the coordinator's promotion root
	// (death_detected through remap steps) with the follower's
	// promotion_install as a child. A wall-clock stall can abort a
	// promotion attempt mid-flight and retry it on a later watchdog
	// tick; those aborted roots are recorded too and skipped here.
	trees := trace.ByName(trace.Build(res.Spans), obs.SpanPromotion)
	completed := 0
	for _, tr := range trees {
		root := tr.Root.Span
		if !root.Complete || root.Attrs["status"] != obs.StatusOK {
			continue
		}
		completed++
		if len(tr.Orphans) != 0 {
			t.Fatalf("promotion trace %016x has %d orphans:\n%s", tr.TraceID, len(tr.Orphans), tr.Render())
		}
		steps := map[string]bool{}
		for _, st := range root.Steps {
			steps[st.Name] = true
		}
		for _, want := range []string{obs.StepDeathDetected, obs.StepPromoteSent, obs.StepPromoteAcked,
			obs.StepMapCommitted, obs.StepRemapSent} {
			if !steps[want] {
				t.Errorf("promotion root missing step %s:\n%s", want, tr.Render())
			}
		}
		installs := 0
		for _, c := range tr.Root.Children {
			if c.Span.Name == obs.SpanPromotionInstall {
				installs++
				if !c.Span.Complete {
					t.Errorf("promotion_install left open on %s:\n%s", c.Span.Node, tr.Render())
				}
			}
		}
		if installs == 0 {
			t.Errorf("promotion tree has no promotion_install child:\n%s", tr.Render())
		}
	}
	if completed != res.Promotions {
		t.Fatalf("reassembled %d completed promotion trees, counter says %d", completed, res.Promotions)
	}
	t.Logf("promote: promotions=%d retries=%d generated=%d results=%d",
		res.Promotions, retryCount(res), res.Generated, res.RuntimeSet.Len())
}

// TestChaosSpilledFailoverExact kills an engine that demonstrably holds
// disk segments and asserts the tiered-standby contract: the follower's
// standby received the victim's segments with its seed (and demoted its
// memory tier on every later spill marker), promotion adopted them into
// the survivor's own store, and the cleanup phase recovered every
// cross-generation match the victim's disk tier still owed — the union
// of runtime and cleanup results matches the fault-free baseline
// exactly under seeded drop/dup/delay faults.
func TestChaosSpilledFailoverExact(t *testing.T) {
	sr, err := RunChaosSpilledFailover(t.TempDir(), membershipFaults(23))
	if err != nil {
		t.Fatalf("spilled-failover run hung or failed: %v", err)
	}
	defer func() {
		if t.Failed() {
			logFailover(t, sr)
		}
	}()
	for _, v := range CheckSpilledFailoverExactness(sr.Res, sr.Baseline) {
		t.Error(v)
	}
	if sr.VictimSegments == 0 || sr.VictimSpilledBytes == 0 {
		t.Fatalf("victim crashed without disk segments (segments=%d bytes=%d) — scenario proves nothing",
			sr.VictimSegments, sr.VictimSpilledBytes)
	}
	if sr.Res.Promotions == 0 {
		t.Fatal("no promotion completed")
	}
	if sr.SurvivorCleanupSegments == 0 {
		t.Error("survivor cleanup merged no disk segments — adopted standby segments missing")
	}
	if sr.Res.CleanupSet == nil || sr.Res.CleanupSet.Len() == 0 {
		t.Error("cleanup phase produced no results — the spilled fraction was lost")
	}
	t.Logf("spilled failover: victim segments=%d (%d bytes), survivor cleanup segments=%d, cleanup results=%d, runtime results=%d",
		sr.VictimSegments, sr.VictimSpilledBytes, sr.SurvivorCleanupSegments,
		sr.Res.CleanupSet.Len(), sr.Res.RuntimeSet.Len())
}

// logFailover prints what a failed spilled-failover run left behind:
// the nodes' engine_dead, promotion_*, groups_demoted and step_exhausted
// log entries in virtual-time order, and every engine life's spill and
// segment counters, so a loss shows whether an unscripted death came before the
// scripted crash.
func logFailover(t *testing.T, sr *SpilledFailoverResult) {
	sort.SliceStable(sr.Logs, func(i, j int) bool { return sr.Logs[i].VT < sr.Logs[j].VT })
	for _, le := range sr.Logs {
		switch {
		case le.Event == "engine_dead", le.Event == "groups_demoted", le.Event == "step_exhausted",
			strings.HasPrefix(le.Event, "promotion_"):
			t.Log(le.String())
		}
	}
	for _, mv := range sr.Res.Metrics {
		switch mv.Name {
		case "distq_engine_spills_total", "distq_engine_spill_bytes_total", "distq_engine_disk_segments":
			t.Logf("%s %v = %v", mv.Name, mv.Labels, mv.Value)
		}
	}
}

// TestChaosHeartbeatFlap isolates an engine until the watchdog
// declares it dead and its followers are promoted, then heals the
// partition so the stale copy revives mid-promotion. The revived copy
// must be demoted (its state dropped, never resumed into ownership),
// and the result set must show no duplicates from the stale copy and
// no losses from the failover.
func TestChaosHeartbeatFlap(t *testing.T) {
	res, err := RunChaosFlap(membershipFaults(19))
	if err != nil {
		t.Fatalf("flap run hung or failed: %v", err)
	}
	assertMembershipExact(t, res)
	if res.Promotions == 0 {
		t.Error("no promotion completed for the flapping engine")
	}
	demotions := res.Counter("distq_coordinator_demotions_total")
	if demotions == 0 {
		t.Error("revived stale copy was never demoted")
	}
	t.Logf("flap: promotions=%d demotions=%.0f generated=%d results=%d",
		res.Promotions, demotions, res.Generated, res.RuntimeSet.Len())
}

// TestChaosCrashRecovery is cold restart as "rejoin empty and be seeded
// again", on three engines: an engine that holds disk segments is
// killed, fails over to the next engine on the follower ring, and comes
// back under its own name over the same store directory
// restoring nothing. Its demotion must leave it with no groups and no
// segments (the reopened store's pre-crash segments are stale copies
// of groups that live elsewhere now), replication must settle again
// with it as a follower — which it cannot unless delta streams tell
// engine lives apart — and when a second engine is killed, the
// promotion must land on the restarted engine and lose nothing: the
// union of runtime and cleanup results matches the fault-free baseline
// exactly under seeded drop/dup/delay faults.
func TestChaosCrashRecovery(t *testing.T) {
	crr, err := RunCrashRecovery(t.TempDir(), membershipFaults(29))
	if err != nil {
		t.Fatalf("restart-reseed run hung or failed: %v", err)
	}
	for _, v := range CheckSpilledFailoverExactness(crr.Res, crr.Baseline) {
		t.Error(v)
	}
	if crr.VictimSegments == 0 {
		t.Fatal("first victim crashed without disk segments — its restart reopened an empty store and proves nothing")
	}
	if !strings.HasSuffix(crr.RejoinDemote, " groups_left=0 segments_left=0") {
		t.Errorf("restarted engine after its demotion: %q, want no groups and no segments left", crr.RejoinDemote)
	}
	if crr.Res.Promotions < 2 {
		t.Fatalf("%d promotions completed, want one per crash", crr.Res.Promotions)
	}
	if crr.SecondVictimOwned == 0 || crr.RejoinerOwnedAfter < crr.RejoinerOwnedBefore+crr.SecondVictimOwned {
		t.Errorf("second promotion: restarted engine owns %d groups, want its %d plus the second victim's %d",
			crr.RejoinerOwnedAfter, crr.RejoinerOwnedBefore, crr.SecondVictimOwned)
	}
	if crr.Res.Counter("distq_coordinator_engine_revivals_total") == 0 {
		t.Error("no engine revival counted")
	}
	t.Logf("restart-reseed: victim segments=%d, rejoin demote=%q, rejoiner owned %d -> %d, relocations=%d, cleanup results=%d, runtime results=%d",
		crr.VictimSegments, crr.RejoinDemote, crr.RejoinerOwnedBefore, crr.RejoinerOwnedAfter,
		crr.Res.Relocations, crr.Res.CleanupSet.Len(), crr.Res.RuntimeSet.Len())
}
