package join

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/partition"
	"repro/internal/tuple"
)

// FuzzDecodeSnapshot ensures segment decoding is total: arbitrary bytes
// either fail cleanly (checksum/magic/truncation, a count the bytes
// behind it cannot hold, a tuple filed under another input) or yield a
// snapshot that re-encodes to the identical bytes and merges into a
// fresh operator of either layout. Spill segments cross disks and the
// network, and every tier aliases what this decoder accepted, so it must
// never panic on corruption nor pass anything a reader could trip on.
func FuzzDecodeSnapshot(f *testing.F) {
	snap := SnapshotOf(3, 1, 2,
		tuple.Tuple{Stream: 0, Key: 1, Seq: 1, Payload: []byte("a")},
		tuple.Tuple{Stream: 1, Key: 1, Seq: 2})
	snap.Output, snap.CumBytes, snap.SpilledTs, snap.EverSpilled = 9, 100, 42, true
	good := EncodeSnapshot(snap)
	// resealed returns good with the uint32 at off set to v and the
	// checksum recomputed, so only the decoder's structural checks see it.
	resealed := func(off int, v uint32, width int) []byte {
		b := bytes.Clone(good)
		if width == 1 {
			b[off] = byte(v)
		} else {
			binary.LittleEndian.PutUint32(b[off:], v)
		}
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	input0 := SnapshotHeaderSize
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("not a snapshot at all, definitely not"))
	f.Add(resealed(input0+4, 1, 1))  // input 0's tuple claims input 1
	f.Add(resealed(input0, 1000, 4)) // input 0 counts more tuples than follow
	f.Add(resealed(input0, 2, 4))    // input 0 swallows input 1's count
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if re := EncodeSnapshot(s); !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs: %d bytes, original %d", len(re), len(data))
		}
		s.ID = 0
		inputs := max(2, len(s.Inputs))
		for _, op := range []*Operator{New(inputs, partition.NewFunc(1), nil), New(inputs, partition.NewFunc(1), func(tuple.Result) {})} {
			if err := op.Merge(s); err != nil {
				if len(s.Inputs) == inputs {
					t.Fatalf("a decoded snapshot does not merge: %v", err)
				}
				continue
			}
			if got := op.ResidentSnapshot(0); got.TupleCount() != s.TupleCount() || op.MemBytes() != s.MemBytes() {
				t.Fatalf("merged %d tuples (%d bytes), the snapshot holds %d (%d bytes)",
					got.TupleCount(), op.MemBytes(), s.TupleCount(), s.MemBytes())
			}
		}
	})
}
