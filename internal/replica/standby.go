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
// (or the last demotion) left, as the snapshot it arrived as, followed
// by the appends that arrived since, kept as the runs the primary's tap
// encoded: one pointer-free copy per delta entry, which the collector
// never scans. Demotion seals the tier with the runs folded in (Image)
// into a segment; promotion installs it. Neither decodes a tuple it does
// not land.
type Standby struct {
	// Mem is the memory tier. Its CumBytes counts the tail too.
	Mem *join.GroupSnapshot
	// tail holds the encoded appends, oldest first.
	tail      [][]byte
	tailBytes int64
}

// NewStandby returns the standby whose memory tier is mem.
func NewStandby(mem *join.GroupSnapshot) *Standby { return &Standby{Mem: mem} }

// EmptyStandby returns the standby of a group nothing was replicated of
// yet: an empty memory tier at generation 0.
func EmptyStandby(id partition.ID, inputs int) *Standby {
	return NewStandby(&join.GroupSnapshot{ID: id, Inputs: make([][]byte, inputs)})
}

// Bytes reports what the standby charges against the engine's memory:
// every tuple it holds at its accounted size (tuple.MemSize), in the
// tier or in the tail.
func (sb *Standby) Bytes() int64 { return sb.Mem.MemBytes() + sb.tailBytes }

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
	sb.Mem.CumBytes += n
	return n, nil
}

// Image returns the memory tier with the tail folded in — each appended
// tuple's bytes at the end of its input, in arrival order, as if the
// seed had carried them — and leaves the standby as it is.
func (sb *Standby) Image() *join.GroupSnapshot {
	im := *sb.Mem
	if err := im.Append(sb.tail...); err != nil {
		panic(fmt.Sprintf("replica: a checked run no longer reads: %v", err))
	}
	return &im
}
