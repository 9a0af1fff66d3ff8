// Package core contains the paper's primary contribution as pure decision
// logic: the partition-group productivity metric, the spill victim
// selection policies, the pair-wise state relocation decision, the
// lazy-disk / active-disk integrated adaptation strategies (Algorithms 1
// and 2 of the paper), and Decide, every choice of who moves what.
//
// Nothing in this package performs I/O or spawns goroutines. The
// coordinator and query engines feed it statistics and execute the
// decisions it returns, mirroring the paper's tiered decision
// architecture: the global coordinator makes coarse-grained decisions
// (how much, between whom), while each local adaptation controller picks
// the concrete partition groups.
package core

import (
	"time"

	"repro/internal/partition"
)

// Mode is a query engine's execution mode (paper Table 2).
type Mode int

const (
	// NormalMode is plain query execution; no adaptation in progress.
	NormalMode Mode = iota
	// SpillMode indicates the engine is pushing states to disk.
	SpillMode
	// RelocateMode indicates the engine participates in a state
	// relocation protocol run.
	RelocateMode
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case NormalMode:
		return "normal_mode"
	case SpillMode:
		return "ss_mode"
	case RelocateMode:
		return "sr_mode"
	default:
		return "unknown_mode"
	}
}

// GroupStats is the per-partition-group statistic the local adaptation
// controller keeps: current memory size and output counters.
type GroupStats struct {
	ID partition.ID
	// Size is the group's current resident memory in bytes (P_size).
	Size int64
	// CumBytes is the group's lifetime inserted bytes, including
	// generations already spilled. Zero means the group has never
	// spilled, in which case it equals Size.
	CumBytes int64
	// Output is the number of result tuples the group has generated
	// (P_output) over its lifetime, as the paper records.
	Output uint64
}

// Productivity returns the partition group productivity metric,
// P_output / P_size. P_size is the lifetime byte count when known:
// until the first spill this is exactly the paper's current-size metric,
// and it stays stable afterwards — dividing lifetime output by a
// just-spilled group's near-empty resident size would make it look
// arbitrarily productive and invert the victim ranking. A group that has
// held no data scores zero.
func (g GroupStats) Productivity() float64 {
	denom := g.CumBytes
	if denom <= 0 {
		denom = g.Size
	}
	if denom <= 0 {
		return 0
	}
	return float64(g.Output) / float64(denom)
}

// RelocationConfig holds the knobs of the pair-wise relocation scheme.
type RelocationConfig struct {
	// Threshold is θ_r: relocate when M_least/M_max < θ_r.
	Threshold float64
	// MinGap is τ_m, the minimal virtual time span between two
	// consecutive relocations.
	MinGap time.Duration
}

// SpillConfig holds the knobs of the local state spill process.
type SpillConfig struct {
	// MemThreshold is the engine memory level (bytes) that triggers a
	// spill (the analogue of the paper's 200 MB / 60 MB thresholds).
	MemThreshold int64
	// Fraction is k%: the share of resident state pushed per spill.
	Fraction float64
}

// SpillAmount returns how many bytes a local spill should push given the
// engine's current resident bytes, or 0 if no spill is needed. This is
// computeSpillAmount() of Algorithm 1: a spill is triggered when usage
// exceeds the threshold and pushes Fraction of the resident state (at
// least enough to return below the threshold).
func (c SpillConfig) SpillAmount(memBytes int64) int64 {
	if c.MemThreshold <= 0 || memBytes <= c.MemThreshold {
		return 0
	}
	amount := int64(float64(memBytes) * c.Fraction)
	if over := memBytes - c.MemThreshold; amount < over {
		amount = over
	}
	if amount > memBytes {
		amount = memBytes
	}
	return amount
}
