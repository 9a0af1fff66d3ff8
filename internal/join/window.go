package join

import (
	"sort"
	"time"

	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// NewWindowed returns an m-way symmetric hash join with a sliding time
// window: an arriving tuple only matches stored tuples whose virtual
// timestamps lie within window of its own. With (roughly) timestamp-
// ordered arrivals this realizes the standard band join semantics of the
// paper's Query 1 ("bank1.timestamp >= bank2.timestamp + window"): a
// match is valid iff the span between its earliest and latest member is
// at most window.
//
// Windowing turns the long-running query's monotonic state growth into a
// plateau — expired tuples can never contribute to future results, so
// Purge drops them entirely (the "operator-state purging" the paper's
// related work discusses), which is the intro's "infinite data streams as
// long as operators have finite window sizes" case.
func NewWindowed(inputs int, part partition.Func, window time.Duration, emit EmitFunc) *Operator {
	op := New(inputs, part, emit)
	op.window = window
	return op
}

// Window reports the operator's window (0 = unbounded).
func (o *Operator) Window() time.Duration { return o.window }

// windowBounds binary-searches a timestamp-sorted run for the records
// within the window of ts and returns their stretch of the run's seq
// column.
func windowBounds(rs []rec, seqs []uint64, ts vclock.Time, window time.Duration) []uint64 {
	lo := sort.Search(len(rs), func(i int) bool { return rs[i].ts >= ts.Add(-window) })
	hi := sort.Search(len(rs), func(i int) bool { return rs[i].ts > ts.Add(window) })
	return seqs[lo:hi]
}

// Purge drops resident tuples with a timestamp strictly before cutoff
// from all groups and returns how many were dropped. The caller vouches
// that no future arrival is stamped before cutoff plus the window, so
// dropping an expired tuple cannot lose run-time results (Expire derives
// such a cutoff per group); but a tuple may still owe cross-generation
// cleanup matches to tuples the group spilled earlier. Purge therefore
// holds back expired tuples whose timestamp is within window of the
// group's spilled-state watermark — they remain resident until a normal
// spill evicts them, after which the cleanup phase produces their
// pending matches. The groups' lifetime counters are untouched: purged
// data still counts toward the productivity history.
//
// Lists are compacted in place, so a purge allocates nothing — but the
// dropped tuples' payload bytes and the entries of keys whose lists all
// emptied stay behind. A group holding more dropped tuples than live
// ones, or more empty entries than live ones, is rebuilt from its live
// tuples, which keeps a windowed operator's memory bounded by its window.
// An unbounded operator expires nothing.
func (o *Operator) Purge(cutoff vclock.Time) int {
	return o.purge(cutoff, false)
}

// Expire purges what expired at now: tuples more than a window older
// than now and than what each of their group's inputs has delivered.
// Each input reaches a group in timestamp order, so no later arrival is
// stamped before the newest timestamp that input landed there; when the
// inputs lag now (a feeder behind its schedule stamps tuples with the
// time they were due), the group's cutoff follows them, not the clock.
// An input that never landed in a group holds the group's state back.
func (o *Operator) Expire(now vclock.Time) int {
	return o.purge(now.Add(-o.window), true)
}

// purge is Purge, with each group's cutoff capped by its inputs' newest
// landed timestamps less the window when delivered is set.
func (o *Operator) purge(cutoff vclock.Time, delivered bool) int {
	if o.window == 0 {
		return 0
	}
	purged := 0
	o.resident(func(g *group) {
		cut := cutoff
		if delivered {
			for _, ts := range g.newest {
				cut = min(cut, ts.Add(-o.window))
			}
		}
		empty := 0
		for e := 0; e < len(g.lists); e += o.inputs {
			live := uint32(0)
			for i := 0; i < o.inputs; i++ {
				l := &g.lists[e+i]
				purged += o.purgeList(g, i, l, cut)
				live += l.n
			}
			if live == 0 {
				empty++
			}
		}
		if g.purged > g.count || 2*empty*o.inputs > len(g.lists) {
			o.land(g, o.unload(g))
		}
	})
	return purged
}

// purgeList drops the purgeable expired tuples of one list of input
// stream and returns how many it dropped.
func (o *Operator) purgeList(g *group, stream int, l *list, cutoff vclock.Time) int {
	rs, seqs := g.run(*l), g.col(*l)
	// Expired prefix [0, n).
	n := sort.Search(len(rs), func(i int) bool { return rs[i].ts >= cutoff })
	// Within the prefix, only tuples newer than the spilled watermark
	// plus the window are free of pending matches.
	lo := 0
	if g.everSpilled {
		safe := g.spilledTs.Add(o.window)
		lo = sort.Search(n, func(i int) bool { return rs[i].ts > safe })
	}
	for j := lo; j < n; j++ {
		t := g.view(stream, 0, seqs[j], &rs[j]) // the accounted size ignores the key
		g.size -= t.MemSize()
		o.totalSize -= t.MemSize()
	}
	if lo >= n {
		return 0
	}
	copy(rs[lo:], rs[n:])
	copy(seqs[lo:], seqs[n:])
	if l.n -= uint32(n - lo); l.n == 0 {
		g.releaseRun(l.chunk) // the next insert carves a new run
	}
	g.count -= n - lo
	g.counts[stream] -= n - lo
	g.purged += n - lo
	return n - lo
}

// WindowedOracle computes the reference result of a windowed m-way join:
// all combinations whose member timestamps span at most window.
func WindowedOracle(inputs int, history []tuple.Tuple, window time.Duration) *tuple.ResultSet {
	set := tuple.NewResultSet()
	combo := make([]tuple.Tuple, inputs)
	for key, ls := range joinable(inputs, history) {
		enumerateWindowed(key, ls, combo, 0, window, set)
	}
	return set
}

func enumerateWindowed(key uint64, ls [][]tuple.Tuple, combo []tuple.Tuple, input int, window time.Duration, set *tuple.ResultSet) {
	if input == len(ls) {
		minTs, maxTs := combo[0].Ts, combo[0].Ts
		for _, t := range combo[1:] {
			if t.Ts < minTs {
				minTs = t.Ts
			}
			if t.Ts > maxTs {
				maxTs = t.Ts
			}
		}
		if maxTs.Sub(minTs) > window {
			return
		}
		seqs := make([]uint64, len(ls))
		for i, t := range combo {
			seqs[i] = t.Seq
		}
		set.Add(tuple.Result{Key: key, Seqs: seqs})
		return
	}
	for i := range ls[input] {
		combo[input] = ls[input][i]
		enumerateWindowed(key, ls, combo, input+1, window, set)
	}
}
