package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Result is one m-way join match: the join key plus the per-stream sequence
// numbers of the participating tuples, ordered by stream index. Two Results
// are the same match if and only if their Key and Seqs are equal, which is
// what the exactness invariant (run-time output + cleanup output = oracle
// output, duplicate-free) is checked against.
//
// Results handed to a join.EmitFunc share the producer's scratch Seqs
// buffer (see the EmitFunc contract): consume them within the call, or
// Clone before retaining.
type Result struct {
	Key  uint64
	Seqs []uint64 // one entry per join input, indexed by stream
}

// Clone returns a deep copy whose Seqs the caller owns, for consumers
// that retain a result past an emit callback.
func (r *Result) Clone() Result {
	return Result{Key: r.Key, Seqs: append([]uint64(nil), r.Seqs...)}
}

// resultHeader is the encoded size of a result's fixed fields: key(8) +
// seq count(2).
const resultHeader = 8 + 2

// EncodedSize reports the byte size of Encode's output.
func (r *Result) EncodedSize() int { return resultHeader + 8*len(r.Seqs) }

// AppendTo appends the binary encoding of r to dst.
func (r *Result) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Seqs)))
	for _, s := range r.Seqs {
		dst = binary.LittleEndian.AppendUint64(dst, s)
	}
	return dst
}

// resultSize reports the encoded size of the result at the front of buf,
// or why buf does not start with a whole one. It is the one check every
// result decode passes through.
func resultSize(buf []byte) (int, error) {
	if len(buf) < resultHeader {
		return 0, fmt.Errorf("tuple: short result buffer: %d bytes", len(buf))
	}
	need := resultHeader + 8*int(binary.LittleEndian.Uint16(buf[8:]))
	if len(buf) < need {
		return 0, fmt.Errorf("tuple: truncated result: need %d bytes, have %d", need, len(buf))
	}
	return need, nil
}

// DecodeResult parses one Result from the front of buf, returning it and the
// number of bytes consumed. Its Seqs get an allocation of their own;
// ReadResults shares one among a whole payload's results.
func DecodeResult(buf []byte) (Result, int, error) {
	size, err := resultSize(buf)
	if err != nil {
		return Result{}, 0, err
	}
	rd := ResultReader{buf: buf[:size], n: 1, seqs: make([]uint64, (size-resultHeader)/8)}
	var r Result
	rd.Next(&r)
	return r, size, nil
}

// ResultReader is a cursor over results encoded back to back, as
// repeated Result.AppendTo writes them: a ResultData payload. Opening one
// (ReadResults) checks the whole payload, so a malformed one is rejected
// before its first result is seen, and allocates one array that holds
// every result's Seqs. Next carves each result's Seqs from that array,
// capacity-clipped, so a consumer may keep any of them (and write into
// it) without touching another's. A copy of a reader reads the same
// results again into the same array: the k-th result of both passes
// shares its Seqs.
type ResultReader struct {
	buf  []byte   // the results not yet yielded
	seqs []uint64 // their Seqs, carved off front to back
	n    int      // how many they are
}

// ReadResults opens a cursor over buf, which must hold whole results and
// nothing else. The error for a malformed payload is the one DecodeResult
// reports for the first result it cannot read, with that result's index
// and byte offset.
func ReadResults(buf []byte) (ResultReader, error) {
	n, words := 0, 0
	for off := 0; off < len(buf); n++ {
		size, err := resultSize(buf[off:])
		if err != nil {
			return ResultReader{}, fmt.Errorf("%w (result %d at byte %d)", err, n, off)
		}
		off += size
		words += (size - resultHeader) / 8
	}
	return ResultReader{buf: buf, n: n, seqs: make([]uint64, words)}, nil
}

// Next sets res to the next result, or reports false at the end.
func (r *ResultReader) Next(res *Result) bool {
	if r.n == 0 {
		return false
	}
	n := int(binary.LittleEndian.Uint16(r.buf[8:]))
	res.Key = binary.LittleEndian.Uint64(r.buf)
	res.Seqs, r.seqs = r.seqs[:n:n], r.seqs[n:]
	for i := range res.Seqs {
		res.Seqs[i] = binary.LittleEndian.Uint64(r.buf[resultHeader+8*i:])
	}
	r.buf = r.buf[resultHeader+8*n:]
	r.n--
	return true
}

// FingerprintString returns a canonical string identity for the match:
// its encoding, which ResultSet.Diff prints.
func (r *Result) FingerprintString() string {
	buf := make([]byte, 0, r.EncodedSize())
	return string(r.AppendTo(buf))
}

// ResultSet is an exact duplicate-detecting collection of Results.
//
// Each distinct result is one record [key, n, seq_0 … seq_{n-1}] in an
// arena of words that grows by whole chunks and never moves a record.
// An open-addressing table finds records: a slot holds the top 32 bits
// of the result's hash (its tag) above the record's arena index + 1, and
// 0 when empty. A probe reads the arena only when a tag matches, then
// compares the whole record, so membership is exact. Slots and chunks
// hold no pointers, so the collector never scans them, and Add and
// Contains allocate only when the table or arena grows.
type ResultSet struct {
	slots []uint64
	shift uint8 // 64 - log2(len(slots)): a hash's top bits pick its home slot
	arena [][]uint64
	n     int
	dups  int
}

const (
	// chunkWords is the arena's growth step (64 KiB). A record longer
	// than that gets a chunk of its own, followed by nil chunks to keep
	// index / chunkWords the chunk of every index.
	chunkWords = 1 << 13
	// minSlots is the table's first size; it doubles past 3/4 full.
	minSlots = 8
	// maxArenaWords is the most the arena may hold: a slot keeps a
	// record's index + 1 in 32 bits.
	maxArenaWords = math.MaxUint32
)

// hashK0 and hashK1 are wyhash's first two primes: hashResult folds
// every word of a record through a full 64×64→128-bit product with one.
const hashK0, hashK1 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db

// hashResult hashes a record. Its top bits choose the home slot and its
// top 32 bits are the tag, so two results whose tags collide share a
// home slot at every table size and a probe always compares them whole.
func hashResult(key uint64, seqs []uint64) uint64 {
	h := fold(key^hashK0, uint64(len(seqs))^hashK1)
	for _, s := range seqs {
		h = fold(h^s, hashK1)
	}
	return h
}

// fold multiplies a by b and folds the 128-bit product to 64 bits.
func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// NewResultSet returns an empty ResultSet.
func NewResultSet() *ResultSet { return &ResultSet{} }

// Add inserts r, reporting whether it was new. Duplicates are counted.
func (s *ResultSet) Add(r Result) bool {
	if !s.add(r.Key, r.Seqs) {
		s.dups++
		return false
	}
	return true
}

// Len reports the number of distinct results added.
func (s *ResultSet) Len() int { return s.n }

// Duplicates reports how many duplicate Adds occurred.
func (s *ResultSet) Duplicates() int { return s.dups }

// Contains reports whether the exact match r has been added.
func (s *ResultSet) Contains(r Result) bool {
	_, ok := s.find(hashResult(r.Key, r.Seqs), r.Key, r.Seqs)
	return ok
}

// find returns the slot holding the record (key, seqs), whose hash is
// h, or the empty slot where it belongs.
func (s *ResultSet) find(h, key uint64, seqs []uint64) (int, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(s.slots) - 1)
	for i := h >> s.shift; ; i = (i + 1) & mask {
		w := s.slots[i]
		if w == 0 {
			return int(i), false
		}
		if w>>32 == h>>32 && s.holds(uint32(w)-1, key, seqs) {
			return int(i), true
		}
	}
}

// holds reports whether the record at arena index at is (key, seqs).
func (s *ResultSet) holds(at uint32, key uint64, seqs []uint64) bool {
	rec := s.arena[at/chunkWords][at%chunkWords:]
	if rec[0] != key || rec[1] != uint64(len(seqs)) {
		return false
	}
	for i, v := range rec[2 : 2+len(seqs)] {
		if v != seqs[i] {
			return false
		}
	}
	return true
}

// add inserts the record (key, seqs) unless it is present, reporting
// whether it was new.
func (s *ResultSet) add(key uint64, seqs []uint64) bool {
	h := hashResult(key, seqs)
	i, ok := s.find(h, key, seqs)
	if ok {
		return false
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
		i, _ = s.find(h, key, seqs)
	}
	s.slots[i] = h>>32<<32 | (uint64(s.store(key, seqs)) + 1)
	s.n++
	return true
}

// grow doubles the slot table. A slot's tag is its hash's top 32 bits,
// and a table has at most 2^32 slots, so the tag alone says where the
// slot goes: no record is read.
func (s *ResultSet) grow() {
	old := s.slots
	s.slots = make([]uint64, max(minSlots, 2*len(old)))
	s.shift = uint8(64 - bits.TrailingZeros(uint(len(s.slots))))
	mask := uint64(len(s.slots) - 1)
	for _, w := range old {
		if w == 0 {
			continue
		}
		i := w >> 32 >> (s.shift - 32)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = w
	}
}

// store appends the record (key, seqs) to the arena and returns its
// index. It panics rather than let an index wrap past 32 bits.
func (s *ResultSet) store(key uint64, seqs []uint64) uint32 {
	size := 2 + len(seqs)
	c := len(s.arena) - 1
	if c < 0 || len(s.arena[c])+size > cap(s.arena[c]) {
		c = len(s.arena)
		s.arena = append(s.arena, make([]uint64, 0, max(chunkWords, size)))
		for extra := (size - 1) / chunkWords; extra > 0; extra-- {
			s.arena = append(s.arena, nil)
		}
	}
	at := uint64(c)*chunkWords + uint64(len(s.arena[c]))
	if at+uint64(size) > maxArenaWords {
		panic(fmt.Sprintf("tuple: result set arena past %d words", uint64(maxArenaWords)))
	}
	s.arena[c] = append(append(s.arena[c], key, uint64(len(seqs))), seqs...)
	return uint32(at)
}

// each calls f with every record in insertion order; seqs aliases the
// arena and must not be kept or written.
func (s *ResultSet) each(f func(key uint64, seqs []uint64)) {
	for _, chunk := range s.arena {
		for len(chunk) > 0 {
			n := 2 + int(chunk[1])
			f(chunk[0], chunk[2:n:n])
			chunk = chunk[n:]
		}
	}
}

// Union returns a new set holding every result of s and other (the
// duplicate counter starts at zero). Phase-split comparisons use it:
// which phase produces a match depends on spill timing, but the union
// across phases is invariant.
func (s *ResultSet) Union(other *ResultSet) *ResultSet {
	u := NewResultSet()
	add := func(key uint64, seqs []uint64) { u.add(key, seqs) }
	s.each(add)
	other.each(add)
	return u
}

// Overlap counts results present in both sets (exactly-once checks:
// the run-time and cleanup sets of one run must not intersect).
func (s *ResultSet) Overlap(other *ResultSet) int {
	n := 0
	s.each(func(key uint64, seqs []uint64) {
		if _, ok := other.find(hashResult(key, seqs), key, seqs); ok {
			n++
		}
	})
	return n
}

// Diff returns the fingerprints (hex-encoded) of results present in s but
// not in other, sorted for stable test output.
func (s *ResultSet) Diff(other *ResultSet) []string {
	var missing []string
	s.each(func(key uint64, seqs []uint64) {
		if _, ok := other.find(hashResult(key, seqs), key, seqs); !ok {
			r := Result{Key: key, Seqs: seqs}
			missing = append(missing, fmt.Sprintf("%x", r.FingerprintString()))
		}
	})
	sort.Strings(missing)
	return missing
}
