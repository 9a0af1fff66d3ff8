package core

import (
	"slices"

	"repro/internal/partition"
	"repro/internal/vclock"
)

// Member is an engine's place in the cluster's membership. Statically
// configured engines start active; a dynamically admitted engine is
// joining until its first report; a departing engine is draining until
// it owns no partitions, then left (terminal — the name cannot rejoin).
// Dead or alive, the watchdog's verdict, is orthogonal to membership.
type Member int32

// Membership states.
const (
	MemberActive Member = iota
	MemberJoining
	MemberDraining
	MemberLeft
)

// String names the membership state for snapshots and logs.
func (m Member) String() string {
	switch m {
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

// Engine is one engine as the coordinator sees it when it decides.
type Engine struct {
	Node   partition.NodeID
	Member Member
	Alive  bool
	// Reported is set while the figures below, from the engine's latest
	// statistics report, describe it: never before its first report.
	Reported bool
	// Resident is the engine's own operator state in memory: the only
	// bytes it can move or spill when asked. Standby is the memory tier
	// of the follower copies it holds of other engines' groups.
	Resident, Standby int64
	// Groups is the number of partition groups resident on the engine.
	Groups int
	// OutputDelta is the number of result tuples generated since the
	// strategy's previous evaluation.
	OutputDelta uint64
	// Owned is how many partitions the master map assigns to the engine.
	Owned int
	// Follower is the serving engine holding the standby copy of the
	// engine's groups, or "" when none does.
	Follower partition.NodeID
}

// MemBytes is everything the engine holds in memory, its own state and
// its standby: what every load formula reads.
func (e Engine) MemBytes() int64 { return e.Resident + e.Standby }

// ProductivityRate returns the machine's average productivity rate R:
// results generated during the sampling period per partition group.
func (e Engine) ProductivityRate() float64 {
	if e.Groups == 0 {
		return 0
	}
	return float64(e.OutputDelta) / float64(e.Groups)
}

// serving engines are alive and active: the ones adaptations may use.
func (e Engine) serving() bool { return e.Alive && e.Member == MemberActive }

// View is everything a decision reads: the time, and one entry per
// engine in name order.
type View struct {
	Now     vclock.Time
	Engines []Engine
}

// Kind is what a decision asks the coordinator to run.
type Kind int

// Decision kinds.
const (
	None Kind = iota
	// Promote fails a dead engine's groups over to their follower: all
	// of them that the receiver follows.
	Promote
	// Drain moves everything a leaving engine owns to the receiver.
	Drain
	// Relocate moves Amount bytes of the sender's groups to the
	// receiver; the sender picks which.
	Relocate
	// ForceSpill makes the sender push Amount bytes of its least
	// productive groups to disk (active-disk only).
	ForceSpill
)

// The reasons Decide and the built-in strategies give, one per branch.
const (
	ReasonFailover        = "failover: engine dead, follower serving"
	ReasonLeave           = "leave: engine draining"
	ReasonRebalance       = "rebalance: a serving engine owns nothing"
	ReasonImbalance       = "imbalance: M_least/M_max < theta_r"
	ReasonProductivityGap = "productivity gap: R_max/R_min > lambda"
)

// Decision is one coarse-grained adaptation: how much state moves, and
// between whom.
type Decision struct {
	Kind             Kind
	Sender, Receiver partition.NodeID
	Amount           int64
	// LowProd has a relocation's sender pick its least productive groups
	// (warming an engine that owns nothing), not its most productive.
	LowProd bool
	// Reason says why, in PROTOCOL.md's vocabulary.
	Reason string
	// Evaluated is set when the strategy saw the view: its productivity
	// window closes, and the next OutputDelta starts from here.
	Evaluated bool
}

// Strategy is the configured half of the decision (Algorithms 1 and 2,
// events at GC). A Strategy may keep state (last relocation time,
// forced-spill budget) but performs no I/O.
type Strategy interface {
	// Decide returns at most one relocation or forced spill for this
	// evaluation round, naming engines of the view — only serving ones,
	// every one reported — and keeping Decide's rule.
	Decide(View) Decision
	// Name is the strategy's label in experiment reports.
	Name() string
}

// Decide is the coordinator's one decision per lb tick, most urgent
// first: fail a dead engine over to its follower, drain a leaving engine,
// warm a serving engine that owns nothing, and otherwise — once every
// serving engine has reported — ask the strategy. The rule: a relocation
// sender, shed donor or forced-spill victim has resident state and is
// never asked for more than it holds, and a receiver is a serving engine
// other than the sender; a drain moves everything a leaver owns.
func Decide(v View, s Strategy) Decision {
	for _, e := range v.Engines {
		if !e.Alive && e.Member != MemberLeft && e.Follower != "" {
			return Decision{Kind: Promote, Sender: e.Node, Receiver: e.Follower, Reason: ReasonFailover}
		}
	}
	loads := View{Now: v.Now}
	complete := true
	for _, e := range v.Engines {
		if e.serving() {
			if e.Reported {
				loads.Engines = append(loads.Engines, e)
			} else {
				complete = false
			}
		}
	}
	if len(loads.Engines) == 0 {
		return Decision{} // nowhere to move anything yet
	}
	for _, e := range v.Engines {
		if e.Member == MemberDraining && e.Alive && e.Owned > 0 {
			least := loads.Engines[0]
			for _, l := range loads.Engines[1:] {
				if l.MemBytes() < least.MemBytes() {
					least = l
				}
			}
			return Decision{Kind: Drain, Sender: e.Node, Receiver: least.Node, Reason: ReasonLeave}
		}
	}
	if d := shed(loads); d.Kind != None {
		return d
	}
	if !complete {
		return Decision{}
	}
	d := s.Decide(loads)
	d.Evaluated = true
	return d
}

// shed rebalances onto a serving engine that owns nothing (a fresh
// joiner, or a flap victim demoted of everything): the fullest engine
// with state of its own sheds its least productive groups, sized to level
// it with the cluster mean — Bala-Join's cost framing, cheap state warms
// the newcomer without disturbing hot groups.
func shed(loads View) Decision {
	var joiner, donor *Engine
	var total int64
	for i := range loads.Engines {
		l := &loads.Engines[i]
		total += l.MemBytes()
		if l.Owned == 0 {
			if joiner == nil {
				joiner = l
			}
		} else if l.Resident > 0 && (donor == nil || l.MemBytes() > donor.MemBytes()) {
			donor = l
		}
	}
	if joiner == nil || donor == nil {
		return Decision{}
	}
	amount := donor.MemBytes() - total/int64(len(loads.Engines))
	if amount <= 0 {
		return Decision{} // the joiner's share would be empty; leave it be
	}
	return Decision{Kind: Relocate, Sender: donor.Node, Receiver: joiner.Node,
		Amount: min(amount, donor.Resident), LowProd: true, Reason: ReasonRebalance}
}

// FollowerFor picks a primary's follower on the ring of serving engines
// (name order): the next one after it, wrapping — deterministic,
// spreading followers across the ring without extra state (the
// influxdb-ha shape). It is "" when the primary is alone on the ring.
func FollowerFor(ring []partition.NodeID, primary partition.NodeID) partition.NodeID {
	if len(ring) == 0 {
		return ""
	}
	i, found := slices.BinarySearch(ring, primary)
	if found {
		i++
	}
	if f := ring[i%len(ring)]; f != primary {
		return f
	}
	return ""
}
