// Package replica holds the replication plane's per-group state, apart
// from the messages that move it (the engine's replicator). On a
// primary it is the tap: one slot per partition group, buffering the
// group's appends for its follower. On a follower it is the standby
// image of a group: the memory tier as the seed's bytes installed it,
// and every append since kept as the run it arrived in until a demotion
// folds it into the tier or a promotion lands it.
package replica

import (
	"bytes"

	"repro/internal/partition"
	"repro/internal/tuple"
)

// Slot is a primary's tap on one partition group; S is the type of the
// outbound stream the owner keeps per follower.
type Slot[S any] struct {
	// To is the group's follower; "" when this engine does not stream
	// the group (it is not the group's primary in the applied replica
	// map, or has given the group up).
	To partition.NodeID
	// Live is the stream the group's appends go to. It is nil when the
	// group has no follower, is not tracked, or awaits its seed (the seed
	// captures everything up to its tick).
	Live *S
	// Buf holds the group's tuple-encoded appends since its last
	// packaged delta.
	Buf []byte
}

// Tap is a primary's slots, indexed by partition ID: IDs are dense (key
// mod partitions), so the data path finds a group's slot by one index.
type Tap[S any] []Slot[S]

// Append buffers t for group g's follower, if the group streams. It
// runs for every tuple entering the join: one slice index, and an
// AppendTo into a buffer the group's earlier ticks grew.
func (tp Tap[S]) Append(g partition.ID, t *tuple.Tuple) {
	if sl := &tp[g]; sl.Live != nil {
		sl.Buf = t.AppendTo(sl.Buf)
	}
}

// Cut hands out the appends buffered since the last cut as one copy of
// exactly their size, for a delta to carry until it is acknowledged, and
// keeps the buffer for the next appends: a group streams about as much
// every tick, so after its first its appends land in a buffer that never
// regrows. A buffer four times larger than the cut it held (a burst
// gone by) is let go rather than kept at its peak.
func (sl *Slot[S]) Cut() []byte {
	out := bytes.Clone(sl.Buf)
	sl.Buf = sl.Buf[:0]
	if cap(sl.Buf) > 4*len(out) {
		sl.Buf = nil
	}
	return out
}

// Reseed stops the group's appends until its next seed, which will
// carry everything buffered so far: the slot keeps its follower.
func (sl *Slot[S]) Reseed() { sl.Live, sl.Buf = nil, nil }
