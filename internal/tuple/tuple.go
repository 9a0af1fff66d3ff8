// Package tuple defines the stream tuple model used throughout the system:
// input tuples flowing from the stream sources into partitioned join
// instances, and join result tuples flowing to the application server.
//
// Memory accounting in the adaptation controllers is defined over these
// tuples (see MemSize), mirroring the paper's byte-level operator-state
// thresholds.
package tuple

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vclock"
)

// Tuple is a single stream element. Key carries the (already normalized)
// join column value; Stream identifies which input of the m-way join the
// tuple belongs to; Seq is a per-stream monotonically increasing sequence
// number that gives every tuple a stable identity (used by the exactness
// tests and the result model); Ts is the virtual arrival timestamp. Only
// a sliding window and a user's filter predicate read Ts, so it is 0
// where no operator can read it: a distq query with no window and no
// filter does not stamp its tuples.
type Tuple struct {
	Stream  uint8
	Key     uint64
	Seq     uint64
	Ts      vclock.Time
	Payload []byte
}

// headerSize is the encoded size of the fixed tuple fields:
// stream(1) + key(8) + seq(8) + ts(8) + payload length(4).
const headerSize = 1 + 8 + 8 + 8 + 4

// structOverhead approximates the in-memory bookkeeping cost of one resident
// tuple beyond its payload bytes (struct fields, slice header, hash-bucket
// share). It only needs to be a consistent per-tuple constant for the
// thresholds and policies to behave like the paper's.
const structOverhead = 56

// MemSize reports the accounted in-memory size of the tuple in bytes.
func (t *Tuple) MemSize() int64 { return structOverhead + int64(len(t.Payload)) }

// EncodedSize reports the exact number of bytes AppendTo will write.
func (t *Tuple) EncodedSize() int { return headerSize + len(t.Payload) }

// AppendTo appends the binary encoding of t to dst and returns the extended
// slice. The encoding is little-endian and self-delimiting.
func (t *Tuple) AppendTo(dst []byte) []byte {
	dst = append(dst, t.Stream)
	dst = binary.LittleEndian.AppendUint64(dst, t.Key)
	dst = binary.LittleEndian.AppendUint64(dst, t.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Ts))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Payload)))
	return append(dst, t.Payload...)
}

// Decode parses one tuple from the front of buf, returning the tuple and
// the number of bytes consumed. The payload is copied into a fresh
// allocation.
func Decode(buf []byte) (Tuple, int, error) {
	size := encodedLen(buf)
	if size < 0 {
		return Tuple{}, 0, fmt.Errorf("tuple: short buffer: %d bytes", len(buf))
	}
	if len(buf) < size {
		return Tuple{}, 0, fmt.Errorf("tuple: truncated payload: need %d bytes, have %d", size, len(buf))
	}
	var t Tuple
	t.view(buf)
	t.own(nil)
	return t, size, nil
}

// view sets t to the tuple at the front of buf, which the caller has
// checked to hold a whole one, and returns its encoded size. Nothing is
// copied: t.Payload aliases buf.
func (t *Tuple) view(buf []byte) int {
	size := headerSize + int(binary.LittleEndian.Uint32(buf[25:]))
	t.Stream = buf[0]
	t.Key = binary.LittleEndian.Uint64(buf[1:])
	t.Seq = binary.LittleEndian.Uint64(buf[9:])
	t.Ts = vclock.Time(binary.LittleEndian.Uint64(buf[17:]))
	t.Payload = nil
	if size > headerSize {
		t.Payload = buf[headerSize:size:size]
	}
	return size
}

// own moves t's payload into slab, in place, and returns the extended
// slab — how a view (see BatchReader) becomes a tuple its holder owns. A
// slab preallocated with enough capacity never regrows; with a nil slab
// the payload gets its own allocation. Payload subslices are
// capacity-clipped, so later slab appends can never alias an earlier
// tuple's payload even if the slab does regrow.
func (t *Tuple) own(slab []byte) []byte {
	if len(t.Payload) > 0 {
		start := len(slab)
		slab = append(slab, t.Payload...)
		t.Payload = slab[start:len(slab):len(slab)]
	}
	return slab
}

// Clone returns a copy of t that owns its payload.
func (t Tuple) Clone() Tuple {
	t.own(nil)
	return t
}

// encodedLen reports the total encoded size of the tuple at the front of
// buf without decoding it, or -1 if buf is too short to hold a header.
func encodedLen(buf []byte) int {
	if len(buf) < headerSize {
		return -1
	}
	return headerSize + int(binary.LittleEndian.Uint32(buf[25:]))
}

// String renders a short human-readable form for logs and test failures.
func (t Tuple) String() string {
	return fmt.Sprintf("t{s%d k%d #%d @%s}", t.Stream, t.Key, t.Seq, t.Ts)
}

// Batch is an ordered group of tuples moved as one data message.
type Batch struct {
	Tuples []Tuple
}

// MemSize reports the accounted size of all tuples in the batch.
func (b *Batch) MemSize() int64 {
	var n int64
	for i := range b.Tuples {
		n += b.Tuples[i].MemSize()
	}
	return n
}

// EncodedSize reports the exact number of bytes Encode will produce.
func (b *Batch) EncodedSize() int {
	size := 4
	for i := range b.Tuples {
		size += b.Tuples[i].EncodedSize()
	}
	return size
}

// AppendTo appends the batch encoding (a uint32 count followed by each
// tuple) to dst and returns the extended slice, so callers with a
// reusable buffer encode without allocating.
func (b *Batch) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Tuples)))
	for i := range b.Tuples {
		dst = b.Tuples[i].AppendTo(dst)
	}
	return dst
}

// Encode serializes the batch into a fresh exactly-sized buffer.
func (b *Batch) Encode() []byte {
	return b.AppendTo(make([]byte, 0, b.EncodedSize()))
}

// DecodeBatch parses a batch produced by Encode into tuples that own
// their payloads, all copied into one per-batch slab allocation.
func DecodeBatch(buf []byte) (Batch, error) {
	r, err := ReadBatch(buf)
	if err != nil {
		return Batch{}, err
	}
	b := Batch{Tuples: make([]Tuple, r.Len())}
	var slab []byte
	if p := len(buf) - 4 - r.Len()*headerSize; p > 0 {
		slab = make([]byte, 0, p) // every payload byte
	}
	for i := range b.Tuples {
		r.Next(&b.Tuples[i])
		slab = b.Tuples[i].own(slab)
	}
	return b, nil
}

// BatchReader is a cursor over an encoded run of tuples. Opening one
// (ReadBatch, ReadRun) checks the whole run's structure, so a malformed
// run is rejected before its first tuple is seen; Next then yields views:
// tuples whose Payload aliases the run's buffer and must be copied
// (Clone, AppendTo) by whoever keeps them longer than the
// buffer. A BatchReader is a small value; copying one forks the cursor.
type BatchReader struct {
	buf []byte // the tuples not yet yielded
	n   int    // how many they are
}

// ReadBatch opens a cursor over a batch as Batch.AppendTo writes it: a
// uint32 count followed by exactly that many tuples.
func ReadBatch(buf []byte) (BatchReader, error) {
	r, rest, err := CutBatch(buf)
	if err == nil && len(rest) != 0 {
		return BatchReader{}, fmt.Errorf("tuple: %d trailing bytes after batch", len(rest))
	}
	return r, err
}

// CutBatch opens a cursor over the batch at the front of buf, as
// ReadBatch does, and returns the bytes after it: how a reader walks
// batches laid end to end.
func CutBatch(buf []byte) (BatchReader, []byte, error) {
	if len(buf) < 4 {
		return BatchReader{}, nil, fmt.Errorf("tuple: short batch buffer: %d bytes", len(buf))
	}
	n, maxPossible := binary.LittleEndian.Uint32(buf), (len(buf)-4)/headerSize
	// Checked first: a corrupt count must not size anything (callers
	// allocate by Len), nor wrap where int is 32 bits.
	if uint64(n) > uint64(maxPossible) {
		return BatchReader{}, nil, fmt.Errorf("tuple: batch count %d exceeds buffer capacity %d", n, maxPossible)
	}
	return scan(buf[4:], int(n))
}

// ReadRun opens a cursor over tuples encoded back to back with no count
// in front, as repeated Tuple.AppendTo writes them.
func ReadRun(buf []byte) (BatchReader, error) {
	r, _, err := scan(buf, -1)
	return r, err
}

// TrustedRun opens a cursor over a run of n tuples the caller encoded
// itself (Tuple.AppendTo, n times) and so need not be checked again; on
// any other bytes Next may panic.
func TrustedRun(buf []byte, n int) BatchReader { return BatchReader{buf: buf, n: n} }

// scan walks the tuple lengths at the front of buf, which must hold want
// tuples (as many as it holds when want < 0), and returns the bytes
// after them.
func scan(buf []byte, want int) (BatchReader, []byte, error) {
	n, off := 0, 0
	for n != want && off < len(buf) {
		size := encodedLen(buf[off:])
		if size < 0 || size > len(buf)-off {
			return BatchReader{}, nil, fmt.Errorf("tuple: batch element %d: truncated: %d bytes left", n, len(buf)-off)
		}
		off += size
		n++
	}
	if n < want {
		return BatchReader{}, nil, fmt.Errorf("tuple: batch element %d: buffer ends before it", n)
	}
	return BatchReader{buf: buf[:off], n: n}, buf[off:], nil
}

// Len reports how many tuples the cursor has yet to yield.
func (r *BatchReader) Len() int { return r.n }

// Next sets t to a view of the next tuple, or reports false at the end.
func (r *BatchReader) Next(t *Tuple) bool {
	if r.n == 0 {
		return false
	}
	r.buf = r.buf[t.view(r.buf):]
	r.n--
	return true
}

// ID identifies a tuple by its stream and sequence number. Result identity
// and exactness checks are defined over IDs, not payloads.
type ID struct {
	Stream uint8
	Seq    uint64
}

// IDOf returns the identity of t.
func IDOf(t *Tuple) ID { return ID{Stream: t.Stream, Seq: t.Seq} }
