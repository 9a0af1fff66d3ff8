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
// state-relocation transfers: a fixed header, per-input tuple lists, and a
// trailing CRC-32 over everything before it.
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
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Tuples)))
	for _, l := range s.Tuples {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l)))
		for i := range l {
			buf = l[i].AppendTo(buf)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// EncodedSize reports the exact length of EncodeSnapshot(s).
func (s *GroupSnapshot) EncodedSize() int {
	size := SnapshotHeaderSize + 4 // crc
	for _, l := range s.Tuples {
		size += 4
		for i := range l {
			size += l[i].EncodedSize()
		}
	}
	return size
}

// DecodeSnapshot parses a snapshot produced by EncodeSnapshot, verifying
// magic and checksum, so a torn or corrupted spill segment is detected
// rather than silently yielding wrong cleanup results.
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
	inputs, rest := len(s.Tuples), body[SnapshotHeaderSize:]
	slab := makePayloadSlab(rest, inputs)
	for i := 0; i < inputs; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("join: truncated snapshot input %d", i)
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		// A corrupt count must not drive a huge allocation; every tuple
		// needs at least its fixed header's worth of bytes.
		if n > len(rest)/29+1 {
			return nil, fmt.Errorf("join: snapshot input %d count %d exceeds remaining bytes", i, n)
		}
		if n > 0 {
			s.Tuples[i] = make([]tuple.Tuple, 0, n)
		}
		for j := 0; j < n; j++ {
			t, used, grown, err := tuple.DecodeSlab(rest, slab)
			if err != nil {
				return nil, fmt.Errorf("join: snapshot input %d tuple %d: %w", i, j, err)
			}
			slab = grown
			s.Tuples[i] = append(s.Tuples[i], t)
			rest = rest[used:]
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("join: %d trailing bytes in snapshot", len(rest))
	}
	return s, nil
}

// DecodeSnapshotHeader parses only the fixed header at the front of an
// encoded snapshot: the group's generation, counters and purge watermark,
// with Tuples sized to the input count and every list empty. The checksum
// is not read, so a store can learn where a group's numbering stands (see
// Seal) from a segment's first SnapshotHeaderSize bytes.
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
		Tuples:      make([][]tuple.Tuple, binary.LittleEndian.Uint16(buf[37:])),
	}, nil
}

// makePayloadSlab pre-scans the encoded tuple-list region of a snapshot
// (per-input count-prefixed lists) and returns a slab with capacity for
// exactly the payload bytes, so the decode loop does one allocation for
// all payloads instead of one each. On malformed input it returns a
// best-effort slab and leaves error reporting to the decode loop.
func makePayloadSlab(rest []byte, inputs int) []byte {
	tuples, tupleBytes := 0, 0
	scan := rest
	for i := 0; i < inputs && len(scan) >= 4; i++ {
		n := int(binary.LittleEndian.Uint32(scan))
		scan = scan[4:]
		for j := 0; j < n; j++ {
			size := tuple.EncodedLen(scan)
			if size < 0 || size > len(scan) {
				break
			}
			tuples++
			tupleBytes += size
			scan = scan[size:]
		}
	}
	if p := tuple.PayloadBytes(tupleBytes, tuples); p > 0 {
		return make([]byte, 0, p)
	}
	return nil
}
