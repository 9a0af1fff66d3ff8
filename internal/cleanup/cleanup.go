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
// least two generations. Processing generations in ascending order while
// maintaining the union of older generations ("old"), each tuple t of the
// current generation enumerates partner combinations drawn from old plus
// the already-processed part of its own generation ("cur"), keeping only
// combinations with at least one old member. A match whose members'
// maximal generation is i is emitted exactly once — while processing the
// last of its generation-i members — and all-same-generation matches are
// never emitted. This is the incremental view maintenance formulation the
// paper cites, made possible by the partition-group granularity: no
// per-tuple timestamps are needed.
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

// tables is a per-input hash index over the join key.
type tables []map[uint64][]tuple.Tuple

func newTables(inputs int) tables {
	ts := make(tables, inputs)
	for i := range ts {
		ts[i] = make(map[uint64][]tuple.Tuple)
	}
	return ts
}

func (ts tables) add(t tuple.Tuple) { ts[t.Stream][t.Key] = append(ts[t.Stream][t.Key], t) }

// Group merges the generations of one partition group (disk segments in
// ascending generation order, optionally followed by the final resident
// generation, which the caller appends) and produces the missed results.
// When emit is nil the results are only counted, using the closed form
// missed(t) = prod(old+cur) - prod(cur) over the partner inputs.
//
// A positive window restricts results to combinations whose member
// timestamps span at most window (the windowed join's semantics); the
// closed form does not apply then, so windowed cleanup always enumerates.
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

	old := newTables(inputs)
	e := &enumerator{inputs: inputs, window: window, emit: emit, seqs: make([]uint64, inputs)}
	for _, g := range gens {
		cur := newTables(inputs)
		var t tuple.Tuple
		for s := 0; s < inputs; s++ {
			for r := g.Input(s); r.Next(&t); {
				res.Tuples++
				res.Results += e.missed(old, cur, &t)
				cur.add(t)
			}
		}
		// Fold the finished generation into old.
		for s := 0; s < inputs; s++ {
			for k, l := range cur[s] {
				old[s][k] = append(old[s][k], l...)
			}
		}
	}
	return res, nil
}

// enumerator produces the missed matches of one tuple.
type enumerator struct {
	inputs int
	window time.Duration
	emit   join.EmitFunc
	seqs   []uint64
	olds   []([]tuple.Tuple)
	curs   []([]tuple.Tuple)
	stream int
	key    uint64
	ts     vclock.Time
	count  uint64
}

// missed returns the number of cross-generation matches completed by t,
// emitting them when materialization is on.
func (e *enumerator) missed(old, cur tables, t *tuple.Tuple) uint64 {
	if e.emit == nil && e.window == 0 {
		all, sameGen := uint64(1), uint64(1)
		for j := 0; j < e.inputs; j++ {
			if j == int(t.Stream) {
				continue
			}
			no := uint64(len(old[j][t.Key]))
			nc := uint64(len(cur[j][t.Key]))
			all *= no + nc
			sameGen *= nc
			if all == 0 {
				return 0
			}
		}
		return all - sameGen
	}
	if cap(e.olds) < e.inputs {
		e.olds = make([][]tuple.Tuple, e.inputs)
		e.curs = make([][]tuple.Tuple, e.inputs)
	}
	e.olds = e.olds[:e.inputs]
	e.curs = e.curs[:e.inputs]
	for j := 0; j < e.inputs; j++ {
		if j == int(t.Stream) {
			continue
		}
		e.olds[j] = old[j][t.Key]
		e.curs[j] = cur[j][t.Key]
		if len(e.olds[j])+len(e.curs[j]) == 0 {
			return 0
		}
	}
	e.stream = int(t.Stream)
	e.key = t.Key
	e.ts = t.Ts
	e.seqs[t.Stream] = t.Seq
	e.count = 0
	e.walk(0, false, t.Ts, t.Ts)
	return e.count
}

// walk binds one partner per input, tracking whether any bound partner is
// from an older generation and the combination's timestamp span; only
// combinations with anyOld (and, when windowed, span <= window) are
// emitted.
func (e *enumerator) walk(input int, anyOld bool, minTs, maxTs vclock.Time) {
	if input == e.inputs {
		if !anyOld {
			return
		}
		if e.window > 0 && maxTs.Sub(minTs) > e.window {
			return
		}
		if e.emit != nil {
			// The EmitFunc contract lets us hand out the scratch seqs
			// buffer directly; retaining consumers must Clone.
			e.emit(tuple.Result{Key: e.key, Seqs: e.seqs})
		}
		e.count++
		return
	}
	if input == e.stream {
		e.walk(input+1, anyOld, minTs, maxTs)
		return
	}
	bind := func(u *tuple.Tuple, old bool) {
		lo, hi := minTs, maxTs
		if u.Ts < lo {
			lo = u.Ts
		}
		if u.Ts > hi {
			hi = u.Ts
		}
		if e.window > 0 && hi.Sub(lo) > e.window {
			return // prune: span already exceeded
		}
		e.seqs[input] = u.Seq
		e.walk(input+1, anyOld || old, lo, hi)
	}
	for i := range e.olds[input] {
		bind(&e.olds[input][i], true)
	}
	for i := range e.curs[input] {
		bind(&e.curs[input][i], false)
	}
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
