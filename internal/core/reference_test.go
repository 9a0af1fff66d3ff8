package core

import (
	"slices"
	"strings"

	"repro/internal/partition"
	"repro/internal/vclock"
)

// The reference Decide is held to: the decision code as it stood before
// Decide — the per-engine load record, DecideRelocation, the three
// strategies and the coordinator's four planners (planPromotion,
// planDrain, planShed, planStrategy, asked in that order) — copied with
// only their inputs changed from the coordinator's state to a View. They
// read MemBytes (resident plus standby) for every choice, so on a
// standby-free view Decide must agree with them exactly.

type refLoad struct {
	Node        partition.NodeID
	MemBytes    int64
	Groups      int
	OutputDelta uint64
}

func (l refLoad) ProductivityRate() float64 {
	if l.Groups == 0 {
		return 0
	}
	return float64(l.OutputDelta) / float64(l.Groups)
}

func refDecideRelocation(loads []refLoad, cfg RelocationConfig, now, last vclock.Time) *Decision {
	if len(loads) < 2 {
		return nil
	}
	if now.Sub(last) < cfg.MinGap {
		return nil
	}
	maxL, minL := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l.MemBytes > maxL.MemBytes {
			maxL = l
		}
		if l.MemBytes < minL.MemBytes {
			minL = l
		}
	}
	if maxL.MemBytes <= 0 || maxL.Node == minL.Node {
		return nil
	}
	if float64(minL.MemBytes)/float64(maxL.MemBytes) >= cfg.Threshold {
		return nil
	}
	amount := (maxL.MemBytes - minL.MemBytes) / 2
	if amount <= 0 {
		return nil
	}
	return &Decision{Kind: Relocate, Sender: maxL.Node, Receiver: minL.Node, Amount: amount}
}

type refStrategy interface {
	Decide(loads []refLoad, now vclock.Time) *Decision
}

type refNoAdapt struct{}

func (refNoAdapt) Decide([]refLoad, vclock.Time) *Decision { return nil }

type refLazyDisk struct {
	Cfg            RelocationConfig
	lastRelocation vclock.Time
}

func (s *refLazyDisk) Decide(loads []refLoad, now vclock.Time) *Decision {
	r := refDecideRelocation(loads, s.Cfg, now, s.lastRelocation)
	if r == nil {
		return nil
	}
	s.lastRelocation = now
	return r
}

type refActiveDisk struct {
	Cfg            ActiveDiskConfig
	lastRelocation vclock.Time
	forcedBytes    int64
}

func (s *refActiveDisk) Decide(loads []refLoad, now vclock.Time) *Decision {
	if r := refDecideRelocation(loads, s.Cfg.Relocation, now, s.lastRelocation); r != nil {
		s.lastRelocation = now
		return r
	}
	if len(loads) < 2 || s.Cfg.Lambda <= 0 {
		return nil
	}
	if s.Cfg.MemHighWater > 0 {
		pressured := false
		for _, l := range loads {
			if l.MemBytes >= s.Cfg.MemHighWater {
				pressured = true
				break
			}
		}
		if !pressured {
			return nil
		}
	}
	maxR, minR := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l.ProductivityRate() > maxR.ProductivityRate() {
			maxR = l
		}
		if l.ProductivityRate() < minR.ProductivityRate() {
			minR = l
		}
	}
	if maxR.Node == minR.Node || minR.MemBytes <= 0 {
		return nil
	}
	rMin := minR.ProductivityRate()
	rMax := maxR.ProductivityRate()
	if rMax <= 0 {
		return nil
	}
	if rMin > 0 && rMax/rMin <= s.Cfg.Lambda {
		return nil
	}
	amount := int64(float64(minR.MemBytes) * s.Cfg.ForcedFraction)
	if amount <= 0 {
		return nil
	}
	if s.Cfg.MaxForcedBytes > 0 {
		remaining := s.Cfg.MaxForcedBytes - s.forcedBytes
		if remaining <= 0 {
			return nil
		}
		if amount > remaining {
			amount = remaining
		}
	}
	s.forcedBytes += amount
	return &Decision{Kind: ForceSpill, Sender: minR.Node, Amount: amount}
}

// refPlanner is the coordinator's planning half over one view.
type refPlanner struct {
	v        View
	strategy refStrategy
}

func (c refPlanner) serving(e Engine) bool { return e.Alive && e.Member == MemberActive }

func (c refPlanner) loads() (loads []refLoad, complete bool) {
	complete = true
	for _, e := range c.v.Engines {
		if !c.serving(e) {
			continue
		}
		if !e.Reported {
			complete = false
			continue
		}
		loads = append(loads, refLoad{Node: e.Node, MemBytes: e.MemBytes(), Groups: e.Groups, OutputDelta: e.OutputDelta})
	}
	return loads, complete
}

func (c refPlanner) owned(node partition.NodeID) int {
	i := slices.IndexFunc(c.v.Engines, func(e Engine) bool { return e.Node == node })
	return c.v.Engines[i].Owned
}

// decide asks the planners in onTick's order; evaluated reports that
// planStrategy advanced the productivity window.
func (c refPlanner) decide() (d *Decision, evaluated bool) {
	if d := c.planPromotion(); d != nil {
		return d, false
	}
	if d := c.planDrain(); d != nil {
		return d, false
	}
	if d := c.planShed(); d != nil {
		return d, false
	}
	return c.planStrategy()
}

func (c refPlanner) planStrategy() (*Decision, bool) {
	loads, complete := c.loads()
	if !complete || len(loads) == 0 {
		return nil, false
	}
	return c.strategy.Decide(loads, c.v.Now), true
}

func (c refPlanner) planDrain() *Decision {
	var leaver partition.NodeID
	for _, e := range c.v.Engines {
		if e.Member == MemberDraining && e.Alive && e.Owned > 0 && (leaver == "" || e.Node < leaver) {
			leaver = e.Node
		}
	}
	loads, _ := c.loads()
	if leaver == "" || len(loads) == 0 {
		return nil
	}
	recv := loads[0]
	for _, l := range loads[1:] {
		if l.MemBytes < recv.MemBytes {
			recv = l
		}
	}
	return &Decision{Kind: Drain, Sender: leaver, Receiver: recv.Node}
}

func (c refPlanner) planShed() *Decision {
	loads, _ := c.loads()
	var joiner, donor *refLoad
	var total int64
	for i := range loads {
		l := &loads[i]
		total += l.MemBytes
		if c.owned(l.Node) == 0 {
			if joiner == nil {
				joiner = l
			}
		} else if donor == nil || l.MemBytes > donor.MemBytes {
			donor = l
		}
	}
	if joiner == nil || donor == nil {
		return nil
	}
	amount := donor.MemBytes - total/int64(len(loads))
	if amount <= 0 {
		return nil
	}
	return &Decision{Kind: Relocate, Sender: donor.Node, Receiver: joiner.Node, Amount: amount, LowProd: true}
}

// planPromotion: the first dead engine (name order) whose groups have a
// serving follower — the View's Follower is exactly the receiver the
// coordinator's per-group scan settled on.
func (c refPlanner) planPromotion() *Decision {
	var victims []Engine
	for _, e := range c.v.Engines {
		if !e.Alive && e.Member != MemberLeft {
			victims = append(victims, e)
		}
	}
	slices.SortFunc(victims, func(a, b Engine) int { return strings.Compare(string(a.Node), string(b.Node)) })
	for _, victim := range victims {
		if victim.Follower != "" {
			return &Decision{Kind: Promote, Sender: victim.Node, Receiver: victim.Follower}
		}
	}
	return nil
}
