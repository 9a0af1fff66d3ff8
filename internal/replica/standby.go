package replica

import (
	"bytes"
	"fmt"

	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/tuple"
)

// Standby is a follower's copy of one group's memory tier, held outside
// the operator until a promotion installs it. It is the tier the seed
// (or the last demotion) left, decoded, followed by the appends that
// arrived since, kept as the runs the primary's tap encoded: one
// pointer-free copy per delta entry, which the collector never scans and
// nothing decodes unless it needs the tuples. Demotion does (Decode, then
// the tier is sealed into a segment); promotion does not — it installs
// the tier and merges the runs after it (join.Operator.MergeRuns).
type Standby struct {
	// Mem is the decoded memory tier, nil once a promotion installed it.
	// Its CumBytes counts the tail too.
	Mem *join.GroupSnapshot
	// tail holds the encoded appends, oldest first.
	tail                [][]byte
	memBytes, tailBytes int64
}

// NewStandby returns the standby whose memory tier is mem.
func NewStandby(mem *join.GroupSnapshot) *Standby {
	return &Standby{Mem: mem, memBytes: mem.MemBytes()}
}

// EmptyStandby returns the standby of a group nothing was replicated of
// yet: an empty memory tier at generation 0.
func EmptyStandby(id partition.ID, inputs int) *Standby {
	return &Standby{Mem: &join.GroupSnapshot{ID: id, Tuples: make([][]tuple.Tuple, inputs)}}
}

// Bytes reports what the standby charges against the engine's memory:
// every tuple it holds at its accounted size (tuple.MemSize), decoded or
// not.
func (sb *Standby) Bytes() int64 { return sb.memBytes + sb.tailBytes }

// Tail returns the appends held encoded, oldest first.
func (sb *Standby) Tail() [][]byte { return sb.tail }

// Append checks run — tuples encoded back to back, each for one of
// inputs — and keeps one copy of it as the tail's newest entry. It
// returns the run's accounted size, which it also adds to the memory
// tier's CumBytes. A run that fails the check changes nothing.
func (sb *Standby) Append(run []byte, inputs int) (int64, error) {
	r, err := tuple.ReadRun(run)
	if err != nil {
		return 0, err
	}
	var n int64
	var t tuple.Tuple
	for r.Next(&t) {
		if int(t.Stream) >= inputs {
			return 0, fmt.Errorf("append tuple for input %d of %d", t.Stream, inputs)
		}
		n += t.MemSize()
	}
	if len(run) > 0 {
		sb.tail = append(sb.tail, bytes.Clone(run))
	}
	sb.tailBytes += n
	if sb.Mem != nil {
		sb.Mem.CumBytes += n
	}
	return n, nil
}

// Image returns the memory tier with the tail decoded onto it — each
// input's list followed by that input's appended tuples in arrival
// order, as if they had been decoded on arrival — and leaves the standby
// as it is. The appended tuples' payloads alias the standby's own copy
// of their runs, which nothing writes again.
func (sb *Standby) Image() *join.GroupSnapshot {
	if sb.Mem == nil {
		return nil
	}
	im := *sb.Mem
	im.Tuples = make([][]tuple.Tuple, len(sb.Mem.Tuples))
	counts := make([]int, len(im.Tuples))
	var t tuple.Tuple
	for _, run := range sb.tail {
		for r := mustRead(run); r.Next(&t); {
			counts[t.Stream]++
		}
	}
	for i, l := range sb.Mem.Tuples {
		im.Tuples[i] = append(make([]tuple.Tuple, 0, len(l)+counts[i]), l...)
	}
	for _, run := range sb.tail {
		for r := mustRead(run); r.Next(&t); {
			im.Tuples[t.Stream] = append(im.Tuples[t.Stream], t)
		}
	}
	return &im
}

// mustRead opens a run Append has checked.
func mustRead(run []byte) tuple.BatchReader {
	r, err := tuple.ReadRun(run)
	if err != nil {
		panic(fmt.Sprintf("replica: a checked run no longer reads: %v", err))
	}
	return r
}

// Decode moves the tail into the memory tier (see Image), for a caller
// that needs the tier's tuples: demotion seals them into a segment.
func (sb *Standby) Decode() {
	if len(sb.tail) == 0 || sb.Mem == nil {
		return
	}
	sb.Mem = sb.Image()
	sb.memBytes += sb.tailBytes
	sb.tail, sb.tailBytes = nil, 0
}

// Landed records that a promotion installed the memory tier: the
// standby keeps only its tail, which follows the tier into the operator.
// It returns the bytes the tier no longer charges.
func (sb *Standby) Landed() int64 {
	n := sb.memBytes
	sb.Mem, sb.memBytes = nil, 0
	return n
}
