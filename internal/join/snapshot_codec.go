package join

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// snapshotMagic identifies an encoded GroupSnapshot ("SPG1").
const snapshotMagic = 0x53504731

// SnapshotHeaderSize is the length of an encoded snapshot's fixed header.
const SnapshotHeaderSize = 4 + 4 + 4 + 8 + 8 + 8 + 1 + 2

// EncodeSnapshot serializes a group snapshot for the spill store and for
// state-relocation transfers: a fixed header, the inputs as they are,
// and a trailing CRC-32 over everything before it.
func EncodeSnapshot(s *GroupSnapshot) []byte {
	return AppendSnapshot(make([]byte, 0, s.EncodedSize()), s)
}

// AppendSnapshot appends EncodeSnapshot(s) to buf (spill.AppendImage
// embeds snapshots without copying them).
func AppendSnapshot(buf []byte, s *GroupSnapshot) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, snapshotMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.ID))
	buf = binary.LittleEndian.AppendUint32(buf, s.Gen)
	buf = binary.LittleEndian.AppendUint64(buf, s.Output)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.CumBytes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.SpilledTs))
	if s.EverSpilled {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Inputs)))
	for _, in := range s.Inputs {
		if in == nil {
			in = []byte{0, 0, 0, 0} // no tuples
		}
		buf = append(buf, in...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// EncodedSize reports the exact length of EncodeSnapshot(s).
func (s *GroupSnapshot) EncodedSize() int {
	size := SnapshotHeaderSize + 4 // crc
	for _, in := range s.Inputs {
		size += max(len(in), 4)
	}
	return size
}

// DecodeSnapshot parses a snapshot produced by EncodeSnapshot, verifying
// magic, checksum, each input's count against its bytes and every
// tuple's stream byte against its input, so a torn or corrupted spill
// segment is detected rather than silently yielding wrong cleanup
// results. The snapshot's inputs alias buf, which the caller must not
// write again while the snapshot is in use.
func DecodeSnapshot(buf []byte) (*GroupSnapshot, error) {
	if len(buf) < SnapshotHeaderSize+4 {
		return nil, fmt.Errorf("join: snapshot too short: %d bytes", len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("join: snapshot checksum mismatch")
	}
	s, err := DecodeSnapshotHeader(body)
	if err != nil {
		return nil, err
	}
	rest := body[SnapshotHeaderSize:]
	var t tuple.Tuple
	for i := range s.Inputs {
		r, next, err := tuple.CutBatch(rest)
		if err != nil {
			return nil, fmt.Errorf("join: snapshot input %d: %w", i, err)
		}
		for r.Next(&t) {
			if int(t.Stream) != i {
				return nil, fmt.Errorf("join: snapshot input %d holds a tuple of input %d", i, t.Stream)
			}
		}
		n := len(rest) - len(next)
		s.Inputs[i], rest = rest[:n:n], next
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("join: %d trailing bytes in snapshot", len(rest))
	}
	return s, nil
}

// DecodeSnapshotHeader parses only the fixed header at the front of an
// encoded snapshot: the group's generation, counters and purge watermark,
// with Inputs sized to the input count and every input empty. The
// checksum is not read, so a store can learn where a group's numbering
// stands (see Seal) from a segment's first SnapshotHeaderSize bytes.
func DecodeSnapshotHeader(buf []byte) (*GroupSnapshot, error) {
	if len(buf) < SnapshotHeaderSize {
		return nil, fmt.Errorf("join: snapshot too short: %d bytes", len(buf))
	}
	if binary.LittleEndian.Uint32(buf) != snapshotMagic {
		return nil, fmt.Errorf("join: bad snapshot magic %#x", binary.LittleEndian.Uint32(buf))
	}
	return &GroupSnapshot{
		ID:          partition.ID(binary.LittleEndian.Uint32(buf[4:])),
		Gen:         binary.LittleEndian.Uint32(buf[8:]),
		Output:      binary.LittleEndian.Uint64(buf[12:]),
		CumBytes:    int64(binary.LittleEndian.Uint64(buf[20:])),
		SpilledTs:   vclock.Time(binary.LittleEndian.Uint64(buf[28:])),
		EverSpilled: buf[36] == 1,
		Inputs:      make([][]byte, binary.LittleEndian.Uint16(buf[37:])),
	}, nil
}
