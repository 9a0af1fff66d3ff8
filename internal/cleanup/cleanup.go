// Package cleanup implements the state cleanup process of the paper's
// state spill adaptation: after the run-time phase, disk-resident partition
// group generations are merged with each other and with the final
// memory-resident generation to produce exactly the results the run-time
// phase missed — no duplicates, no misses.
//
// Correctness argument. Within one partition group, a tuple joins at
// arrival with precisely the co-resident tuples, i.e. those of its own
// generation (earlier generations are on disk). So the run-time output of
// a group is exactly the set of matches whose members all share one
// generation, and the missed results are exactly the matches spanning at
// least two generations. Cleanup lands the generations, oldest first, in
// one join group of an unwindowed operator (join.Operator.CatchUp), whose
// lists keep arrival order: before generation i lands, every list's
// older generations are a prefix of it. Generation i lands input by
// input, and each tuple t probes before it is added, so every partner
// list is the prefix of older generations followed, on the inputs before
// t's, by generation i's tuples; t keeps only the combinations with at
// least one partner in a prefix. A match whose members' newest
// generation is i is emitted exactly once — by its generation-i member on
// the last input, when every other member is already in a list — and
// all-same-generation matches are never emitted. This is the incremental
// view maintenance formulation the paper cites, made possible by the
// partition-group granularity: no per-tuple timestamps are needed.
package cleanup

import (
	"fmt"
	"time"

	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// GroupResult summarizes the cleanup of one partition group.
type GroupResult struct {
	ID          partition.ID
	Generations int
	Tuples      int
	Results     uint64
}

// Stats summarizes a full cleanup run over a store.
type Stats struct {
	Groups   int
	Segments int
	Tuples   int
	Results  uint64
	// Elapsed is the wall-clock time the cleanup computation took. The
	// paper reports cleanup durations (e.g. Figures 7 and 12 text);
	// since cleanup is pure computation over the spilled data, wall time
	// is the faithful measure here.
	Elapsed time.Duration
}

// Group merges the generations of one partition group (disk segments in
// ascending generation order, optionally followed by the final resident
// generation, which the caller appends) and produces the missed results.
// When emit is nil the results are only counted, from list lengths.
//
// A positive window restricts results to combinations whose member
// timestamps span at most window (the windowed join's semantics); a
// windowed count reads the tuples' timestamps, so it enumerates.
func Group(inputs int, gens []*join.GroupSnapshot, window time.Duration, emit join.EmitFunc) (GroupResult, error) {
	var res GroupResult
	if len(gens) == 0 {
		return res, nil
	}
	res.ID = gens[0].ID
	res.Generations = len(gens)
	for i, g := range gens {
		if len(g.Inputs) != inputs {
			return res, fmt.Errorf("cleanup: generation %d of group %d has %d inputs, want %d", g.Gen, g.ID, len(g.Inputs), inputs)
		}
		if g.ID != res.ID {
			return res, fmt.Errorf("cleanup: mixed groups %d and %d", res.ID, g.ID)
		}
		if i > 0 && g.Gen <= gens[i-1].Gen {
			return res, fmt.Errorf("cleanup: generations out of order for group %d: %d after %d", g.ID, g.Gen, gens[i-1].Gen)
		}
	}
	if window > 0 && emit == nil {
		emit = func(tuple.Result) {} // only an emitting operator keeps timestamps
	}
	op := join.New(inputs, partition.NewFunc(int(res.ID)+1), emit)
	for _, g := range gens {
		tuples, missed, err := op.CatchUp(g, window)
		if err != nil {
			return res, err
		}
		res.Tuples += tuples
		res.Results += missed
	}
	return res, nil
}

// Run performs the cleanup for every group with segments in store,
// merging each with its resident generation from op (if any). It is the
// per-engine cleanup of the paper's disk phase; op may be nil when the
// engine holds no resident state (e.g. everything was spilled). window
// carries the join's sliding window (0 = unbounded).
//
// Groups are merged in the ascending ID order store.Groups returns, on
// the caller's goroutine, so emit is never called concurrently. On
// failure every group is still attempted, and the returned error is that
// of the lowest-numbered failing group; the stats then cover the groups
// that did succeed.
// Parallelism comes from engines, not from here: each engine cleans up
// its own store at the same time as the others.
func Run(inputs int, store spill.Store, op *join.Operator, window time.Duration, emit join.EmitFunc) (Stats, error) {
	start := vclock.WallNow()
	var (
		stats    Stats
		firstErr error
	)
	for _, id := range store.Groups() {
		res, nsegs, err := cleanupGroup(inputs, store, op, id, window, emit)
		stats.Segments += nsegs
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		stats.Groups++
		stats.Tuples += res.Tuples
		stats.Results += res.Results
	}
	stats.Elapsed = vclock.WallSince(start)
	return stats, firstErr
}

// cleanupGroup merges one group: its disk segments plus the resident
// generation from op (if any).
func cleanupGroup(inputs int, store spill.Store, op *join.Operator, id partition.ID, window time.Duration, emit join.EmitFunc) (GroupResult, int, error) {
	segs, err := store.Read(id)
	if err != nil {
		return GroupResult{}, 0, fmt.Errorf("cleanup: read group %d: %w", id, err)
	}
	nsegs := len(segs)
	if op != nil {
		if resident := op.ResidentSnapshot(id); resident != nil && resident.TupleCount() > 0 {
			segs = append(segs, resident)
		}
	}
	res, err := Group(inputs, segs, window, emit)
	return res, nsegs, err
}
