package core

import (
	"slices"

	"repro/internal/vclock"
)

// NoAdapt is the baseline strategy: the coordinator never adapts. Local
// spill (if enabled at the engines) still protects each machine from
// memory overflow, which makes NoAdapt the paper's "no-relocation" case;
// with local spill disabled and ample memory it is the "All-Mem" case.
type NoAdapt struct{}

// Name implements Strategy.
func (NoAdapt) Name() string { return "no-relocation" }

// Decide implements Strategy.
func (NoAdapt) Decide(View) Decision { return Decision{} }

// LazyDisk implements Algorithm 1's coordinator events: state relocation
// is the only global decision; state spill remains a purely local decision
// at each engine, taken only when that engine's own memory overflows.
// Relocation is preferred for as long as any machine in the cluster can
// hold the states of overloaded machines.
type LazyDisk struct {
	Cfg            RelocationConfig
	lastRelocation vclock.Time
}

// NewLazyDisk returns a lazy-disk strategy with the given relocation knobs.
func NewLazyDisk(cfg RelocationConfig) *LazyDisk {
	return &LazyDisk{Cfg: cfg, lastRelocation: vclock.Time(-1 << 62)}
}

// Name implements Strategy.
func (s *LazyDisk) Name() string { return "lazy-disk" }

// Decide implements Strategy.
func (s *LazyDisk) Decide(v View) Decision {
	d := relocation(v, s.Cfg, s.lastRelocation)
	if d.Kind != None {
		s.lastRelocation = v.Now
	}
	return d
}

// relocation applies the paper's pair-wise scheme: the machine with
// maximal memory usage among those with state of their own is the sender,
// the one with least usage the receiver, and (M_max - M_least)/2 bytes
// move if M_least/M_max < θ_r and at least τ_m has elapsed since the
// previous relocation (last).
func relocation(v View, cfg RelocationConfig, last vclock.Time) Decision {
	if len(v.Engines) < 2 || v.Now.Sub(last) < cfg.MinGap {
		return Decision{}
	}
	var sender *Engine
	least := &v.Engines[0]
	for i := range v.Engines {
		e := &v.Engines[i]
		if e.Resident > 0 && (sender == nil || e.MemBytes() > sender.MemBytes()) {
			sender = e
		}
		if e.MemBytes() < least.MemBytes() {
			least = e
		}
	}
	if sender == nil || sender.MemBytes() <= 0 || sender.Node == least.Node {
		return Decision{}
	}
	if float64(least.MemBytes())/float64(sender.MemBytes()) >= cfg.Threshold {
		return Decision{}
	}
	amount := (sender.MemBytes() - least.MemBytes()) / 2
	if amount <= 0 {
		return Decision{}
	}
	return Decision{Kind: Relocate, Sender: sender.Node, Receiver: least.Node,
		Amount: min(amount, sender.Resident), Reason: ReasonImbalance}
}

// ActiveDiskConfig holds the extra knobs of Algorithm 2.
type ActiveDiskConfig struct {
	Relocation RelocationConfig
	// Lambda is the productivity ratio threshold: when R_max/R_min > λ
	// the coordinator forces the least productive machine to spill.
	Lambda float64
	// ForcedFraction is the share of the target machine's resident state
	// pushed per forced spill.
	ForcedFraction float64
	// MaxForcedBytes caps the cumulative amount of state the coordinator
	// may force to disk — the paper's M_query − M_cluster bound (100 MB
	// in its experiments). Zero means no cap.
	MaxForcedBytes int64
	// MemHighWater gates forced spills on memory pressure: the paper
	// forces the less productive machine's partitions to disk "but only
	// if extra memory is needed", so no spill is forced while every
	// machine sits below this many bytes. Zero disables the gate.
	MemHighWater int64
}

// ActiveDisk implements Algorithm 2: relocation is still preferred, but
// when memory usage is balanced (M_least/M_max >= θ_r) and one machine's
// average productivity rate is far below the others (R_max/R_min > λ),
// the coordinator proactively forces that machine to spill, so that the
// globally productive partitions can occupy the freed memory.
type ActiveDisk struct {
	Cfg            ActiveDiskConfig
	lastRelocation vclock.Time
	forcedBytes    int64
}

// NewActiveDisk returns an active-disk strategy with the given knobs.
func NewActiveDisk(cfg ActiveDiskConfig) *ActiveDisk {
	return &ActiveDisk{Cfg: cfg, lastRelocation: vclock.Time(-1 << 62)}
}

// Name implements Strategy.
func (s *ActiveDisk) Name() string { return "active-disk" }

// Decide implements Strategy.
func (s *ActiveDisk) Decide(v View) Decision {
	if d := relocation(v, s.Cfg.Relocation, s.lastRelocation); d.Kind != None {
		s.lastRelocation = v.Now
		return d
	}
	if len(v.Engines) < 2 || s.Cfg.Lambda <= 0 {
		return Decision{}
	}
	if s.Cfg.MemHighWater > 0 && !slices.ContainsFunc(v.Engines, func(e Engine) bool {
		return e.MemBytes() >= s.Cfg.MemHighWater
	}) {
		return Decision{}
	}
	maxR, minR := v.Engines[0], v.Engines[0]
	for _, e := range v.Engines[1:] {
		if e.ProductivityRate() > maxR.ProductivityRate() {
			maxR = e
		}
		if e.ProductivityRate() < minR.ProductivityRate() {
			minR = e
		}
	}
	if maxR.Node == minR.Node {
		return Decision{}
	}
	rMin := minR.ProductivityRate()
	rMax := maxR.ProductivityRate()
	if rMax <= 0 {
		return Decision{}
	}
	if rMin > 0 && rMax/rMin <= s.Cfg.Lambda {
		return Decision{}
	}
	amount := min(int64(float64(minR.MemBytes())*s.Cfg.ForcedFraction), minR.Resident)
	if amount <= 0 {
		return Decision{}
	}
	if s.Cfg.MaxForcedBytes > 0 {
		remaining := s.Cfg.MaxForcedBytes - s.forcedBytes
		if remaining <= 0 {
			return Decision{}
		}
		amount = min(amount, remaining)
	}
	s.forcedBytes += amount
	return Decision{Kind: ForceSpill, Sender: minR.Node, Amount: amount, Reason: ReasonProductivityGap}
}
