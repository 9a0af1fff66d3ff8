package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/vclock"
)

// strategyPair is one randomly configured strategy twice over: the
// current one and its reference copy, each with its own state.
func strategyPair(rng *rand.Rand) (Strategy, refStrategy) {
	reloc := RelocationConfig{
		Threshold: 0.3 + 0.7*rng.Float64(),
		MinGap:    []time.Duration{0, 10 * time.Second, 45 * time.Second}[rng.Intn(3)],
	}
	switch rng.Intn(3) {
	case 0:
		return NoAdapt{}, refNoAdapt{}
	case 1:
		return NewLazyDisk(reloc), &refLazyDisk{Cfg: reloc, lastRelocation: vclock.Time(-1 << 62)}
	default:
		cfg := ActiveDiskConfig{
			Relocation:     reloc,
			Lambda:         []float64{0, 1.5, 2, 5}[rng.Intn(4)],
			ForcedFraction: 0.05 + 0.95*rng.Float64(),
			MaxForcedBytes: []int64{0, 2000, 20000}[rng.Intn(3)],
			MemHighWater:   []int64{0, 3000, 8000}[rng.Intn(3)],
		}
		return NewActiveDisk(cfg), &refActiveDisk{Cfg: cfg, lastRelocation: vclock.Time(-1 << 62)}
	}
}

// randomBytes is a memory figure, zero one time in five.
func randomBytes(rng *rand.Rand) int64 {
	if rng.Intn(5) == 0 {
		return 0
	}
	return rng.Int63n(10000)
}

// randomView is one lb tick's view of n engines. With standby set, about
// half of them also hold standby bytes. Follower names a serving engine
// (or nobody), as the coordinator's view does.
func randomView(rng *rand.Rand, now vclock.Time, n int, standby bool) View {
	v := View{Now: now}
	members := []Member{MemberActive, MemberActive, MemberActive, MemberActive, MemberActive, MemberActive,
		MemberActive, MemberActive, MemberJoining, MemberDraining, MemberLeft}
	for i := 0; i < n; i++ {
		e := Engine{
			Node:   partition.NodeID(fmt.Sprintf("m%d", i+1)),
			Member: members[rng.Intn(len(members))], Alive: rng.Intn(10) != 0, Reported: rng.Intn(12) != 0,
			Resident: randomBytes(rng), Groups: rng.Intn(6), OutputDelta: uint64(rng.Intn(1000)), Owned: rng.Intn(4),
		}
		if standby && rng.Intn(2) == 0 {
			e.Standby = randomBytes(rng)
		}
		v.Engines = append(v.Engines, e)
	}
	var ring []partition.NodeID
	for _, e := range v.Engines {
		if e.serving() {
			ring = append(ring, e.Node)
		}
	}
	for i := range v.Engines {
		if v.Engines[i].Owned > 0 && len(ring) > 0 && rng.Intn(3) != 0 {
			v.Engines[i].Follower = ring[rng.Intn(len(ring))]
		}
	}
	return v
}

// sequences feeds count seeded view sequences, each to a fresh pair of
// strategies, and hands every view and both sides' strategies to check.
func sequences(t *testing.T, count int, standby bool, check func(v View, s Strategy, ref refStrategy)) {
	t.Helper()
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < count; i++ {
		s, ref := strategyPair(rng)
		n := 2 + rng.Intn(4)
		now := vclock.Time(time.Minute)
		for step := 0; step < 6; step++ {
			now = now.Add(time.Duration(rng.Intn(30)) * time.Second)
			check(randomView(rng, now, n, standby), s, ref)
		}
	}
}

// TestDecideMatchesReference: on standby-free views — every paper figure
// and benchmark workload runs without replication — Decide makes exactly
// the decisions the planners and strategies it replaced made, and
// advances the productivity window exactly when they did.
func TestDecideMatchesReference(t *testing.T) {
	kinds := map[Kind]int{}
	sequences(t, 10000, false, func(v View, s Strategy, ref refStrategy) {
		got := Decide(v, s)
		want, evaluated := refPlanner{v: v, strategy: ref}.decide()
		if want == nil {
			want = &Decision{}
		}
		got.Reason = ""
		want.Evaluated = evaluated
		if got != *want {
			t.Fatalf("view %+v:\n  Decide    %+v\n  reference %+v", v, got, *want)
		}
		kinds[got.Kind]++
		if got.Kind == Relocate && got.LowProd {
			kinds[-1]++
		}
	})
	t.Logf("decisions by kind (-1: shed): %v", kinds)
	for _, k := range []Kind{None, Promote, Drain, Relocate, ForceSpill, -1} {
		if kinds[k] < 100 {
			t.Errorf("only %d decisions of kind %d: the generator no longer covers that branch", kinds[k], k)
		}
	}
}

// TestDecideNeverAsksForStandby: with standby bytes in the view, no
// relocation sender, shed donor or forced-spill victim is without
// resident state or asked for more than it holds, every receiver is a
// serving engine other than the sender, and the precedence holds.
func TestDecideNeverAsksForStandby(t *testing.T) {
	sequences(t, 10000, true, func(v View, s Strategy, _ refStrategy) {
		d := Decide(v, s)
		find := func(node partition.NodeID) (Engine, bool) {
			i := slices.IndexFunc(v.Engines, func(e Engine) bool { return e.Node == node })
			if i < 0 {
				return Engine{}, false
			}
			return v.Engines[i], true
		}
		sender, _ := find(d.Sender)
		if d.Kind == Relocate || d.Kind == ForceSpill {
			if sender.Resident <= 0 || d.Amount <= 0 || d.Amount > sender.Resident {
				t.Fatalf("%+v asks %+v for bytes it does not hold", d, sender)
			}
		}
		if d.Kind == Relocate || d.Kind == Drain || d.Kind == Promote {
			if r, ok := find(d.Receiver); !ok || !r.serving() || d.Receiver == d.Sender {
				t.Fatalf("%+v: receiver %+v is not a serving engine other than the sender", d, r)
			}
		}
		var victim, leaver *Engine
		reported := false
		for i := range v.Engines {
			e := &v.Engines[i]
			if victim == nil && !e.Alive && e.Member != MemberLeft && e.Follower != "" {
				victim = e
			}
			if leaver == nil && e.Alive && e.Member == MemberDraining && e.Owned > 0 {
				leaver = e
			}
			reported = reported || (e.serving() && e.Reported)
		}
		switch {
		case victim != nil:
			if d.Kind != Promote || d.Sender != victim.Node {
				t.Fatalf("%+v while %s is dead with a serving follower", d, victim.Node)
			}
		case !reported:
			if d.Kind != None {
				t.Fatalf("%+v with no serving engine reported", d)
			}
		case leaver != nil:
			if d.Kind != Drain || d.Sender != leaver.Node {
				t.Fatalf("%+v while %s is draining", d, leaver.Node)
			}
		case d.Kind == Promote || d.Kind == Drain:
			t.Fatalf("%+v with nobody dead or draining", d)
		}
	})
}

// TestDecideBranches is one row per branch of Decide, reason included.
func TestDecideBranches(t *testing.T) {
	active := func(node partition.NodeID, resident, standby int64, owned int) Engine {
		return Engine{Node: node, Member: MemberActive, Alive: true, Reported: true, Resident: resident,
			Standby: standby, Groups: 4, Owned: owned}
	}
	dead := active("m1", 500, 0, 3)
	dead.Alive, dead.Follower = false, "m2"
	leaver := active("m1", 500, 0, 3)
	leaver.Member = MemberDraining
	silent := active("m3", 0, 0, 0)
	silent.Reported = false
	lazy := NewLazyDisk(RelocationConfig{Threshold: 0.8})
	spiller := NewActiveDisk(ActiveDiskConfig{Relocation: RelocationConfig{Threshold: 0.5}, Lambda: 2, ForcedFraction: 0.5})
	productive := active("m1", 1000, 0, 3)
	productive.OutputDelta = 1000
	for _, tc := range []struct {
		name    string
		engines []Engine
		s       Strategy
		want    Decision
	}{
		{"promote", []Engine{dead, active("m2", 100, 0, 3)}, lazy,
			Decision{Kind: Promote, Sender: "m1", Receiver: "m2", Reason: ReasonFailover}},
		{"nobody serving has reported", []Engine{silent}, lazy, Decision{}},
		{"drain to the emptiest", []Engine{leaver, active("m2", 900, 0, 3), active("m3", 100, 200, 2)}, lazy,
			Decision{Kind: Drain, Sender: "m1", Receiver: "m3", Reason: ReasonLeave}},
		{"shed to the engine owning nothing", []Engine{active("m1", 3000, 0, 4), active("m2", 1000, 0, 4), active("m3", 0, 0, 0)}, lazy,
			Decision{Kind: Relocate, Sender: "m1", Receiver: "m3", Amount: 1667, LowProd: true, Reason: ReasonRebalance}},
		{"shed skips a donor holding only standby", []Engine{active("m1", 6000, 0, 4), active("m2", 0, 8000, 4), active("m3", 0, 0, 0)}, lazy,
			Decision{Kind: Relocate, Sender: "m1", Receiver: "m3", Amount: 1334, LowProd: true, Reason: ReasonRebalance}},
		{"strategy waits for every report", []Engine{active("m1", 1000, 0, 4), silent}, lazy, Decision{}},
		{"relocate", []Engine{active("m1", 1000, 0, 4), active("m2", 100, 0, 4)}, lazy,
			Decision{Kind: Relocate, Sender: "m1", Receiver: "m2", Amount: 450, Reason: ReasonImbalance, Evaluated: true}},
		{"relocate from the fullest engine with state of its own", []Engine{active("m1", 0, 9000, 4), active("m2", 1000, 0, 4), active("m3", 200, 0, 4)},
			NewLazyDisk(RelocationConfig{Threshold: 0.8}),
			Decision{Kind: Relocate, Sender: "m2", Receiver: "m3", Amount: 400, Reason: ReasonImbalance, Evaluated: true}},
		{"force spill", []Engine{productive, active("m2", 900, 0, 4)}, spiller,
			Decision{Kind: ForceSpill, Sender: "m2", Amount: 450, Reason: ReasonProductivityGap, Evaluated: true}},
		{"strategy idle", []Engine{active("m1", 1000, 0, 4), active("m2", 1000, 0, 4)}, lazy, Decision{Evaluated: true}},
	} {
		if got := Decide(View{Now: vclock.Time(time.Minute), Engines: tc.engines}, tc.s); got != tc.want {
			t.Errorf("%s:\n  got  %+v\n  want %+v", tc.name, got, tc.want)
		}
	}
}

func TestFollowerFor(t *testing.T) {
	ring := []partition.NodeID{"a", "c", "e"}
	for primary, want := range map[partition.NodeID]partition.NodeID{"a": "c", "c": "e", "e": "a", "b": "c", "f": "a"} {
		if got := FollowerFor(ring, primary); got != want {
			t.Errorf("FollowerFor(%v, %s) = %q, want %q", ring, primary, got, want)
		}
	}
	if got := FollowerFor([]partition.NodeID{"a"}, "a"); got != "" {
		t.Errorf("alone on the ring: follower %q", got)
	}
	if got := FollowerFor(nil, "a"); got != "" {
		t.Errorf("empty ring: follower %q", got)
	}
}
