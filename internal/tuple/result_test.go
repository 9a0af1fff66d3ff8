package tuple

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// refSet is the result set ResultSet replaced: one map entry per
// fingerprint string. ResultSet is held to it.
type refSet struct {
	seen map[string]struct{}
	dups int
}

func newRefSet() *refSet { return &refSet{seen: make(map[string]struct{})} }

func (s *refSet) Add(r Result) bool {
	fp := r.FingerprintString()
	if _, ok := s.seen[fp]; ok {
		s.dups++
		return false
	}
	s.seen[fp] = struct{}{}
	return true
}

func (s *refSet) Len() int        { return len(s.seen) }
func (s *refSet) Duplicates() int { return s.dups }

func (s *refSet) Contains(r Result) bool {
	_, ok := s.seen[r.FingerprintString()]
	return ok
}

func (s *refSet) Union(other *refSet) *refSet {
	u := newRefSet()
	for fp := range s.seen {
		u.seen[fp] = struct{}{}
	}
	for fp := range other.seen {
		u.seen[fp] = struct{}{}
	}
	return u
}

func (s *refSet) Overlap(other *refSet) int {
	n := 0
	for fp := range s.seen {
		if _, ok := other.seen[fp]; ok {
			n++
		}
	}
	return n
}

func (s *refSet) Diff(other *refSet) []string {
	var missing []string
	for fp := range s.seen {
		if _, ok := other.seen[fp]; !ok {
			missing = append(missing, fmt.Sprintf("%x", fp))
		}
	}
	sort.Strings(missing)
	return missing
}

// tag is the part of a result's hash a slot keeps.
func tag(r Result) uint32 { return uint32(hashResult(r.Key, r.Seqs) >> 32) }

// tagCollisions finds n pairs of distinct results with equal tags by
// brute force over a deterministic family of 3-way results: a probe for
// one that meets the other must compare the records to tell them apart.
func tagCollisions(t *testing.T, n int) [][2]Result {
	t.Helper()
	gen := func(i uint32) Result {
		return Result{Key: uint64(i % 97), Seqs: []uint64{uint64(i), uint64(i) * 3, 7}}
	}
	seen := make(map[uint32]uint32)
	var pairs [][2]Result
	for i := uint32(0); len(pairs) < n; i++ {
		if i == 1<<24 {
			t.Fatalf("only %d tag collisions in 2^24 results", len(pairs))
		}
		r := gen(i)
		if j, ok := seen[tag(r)]; ok {
			pairs = append(pairs, [2]Result{gen(j), r})
			continue
		}
		seen[tag(r)] = i
	}
	return pairs
}

// check holds s to ref on every read the set offers.
func check(t *testing.T, when string, s, other *ResultSet, ref, refOther *refSet) {
	t.Helper()
	if s.Len() != ref.Len() || s.Duplicates() != ref.Duplicates() {
		t.Fatalf("%s: Len %d, Duplicates %d; reference %d, %d", when, s.Len(), s.Duplicates(), ref.Len(), ref.Duplicates())
	}
	if got, want := s.Overlap(other), ref.Overlap(refOther); got != want {
		t.Fatalf("%s: Overlap %d, reference %d", when, got, want)
	}
	if got, want := s.Diff(other), ref.Diff(refOther); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Diff has %d entries, reference %d", when, len(got), len(want))
	}
	u, refU := s.Union(other), ref.Union(refOther)
	if u.Len() != refU.Len() || u.Duplicates() != 0 {
		t.Fatalf("%s: Union Len %d with %d duplicates, reference %d", when, u.Len(), u.Duplicates(), refU.Len())
	}
	if got, want := u.Diff(NewResultSet()), refU.Diff(newRefSet()); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Union holds other results than the reference's", when)
	}
}

// ResultSet and the map it replaced agree on every answer, over random
// results of arity 2–5 that include duplicates, equal keys with other
// Seqs, equal Seqs under another key, results whose tags collide and
// results too long for an arena chunk, across every table and arena
// growth of two sets.
func TestResultSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var pool []Result
	for _, p := range tagCollisions(t, 8) {
		pool = append(pool, p[0], p[1])
	}
	long := func(n int) Result {
		r := Result{Key: rng.Uint64(), Seqs: make([]uint64, n)}
		for i := range r.Seqs {
			r.Seqs[i] = rng.Uint64()
		}
		return r
	}
	next := func() Result {
		if len(pool) == 0 || rng.Intn(2) == 0 {
			r := Result{Key: uint64(rng.Intn(50)), Seqs: make([]uint64, 2+rng.Intn(4))}
			for i := range r.Seqs {
				r.Seqs[i] = uint64(rng.Intn(1000))
			}
			return r
		}
		r := pool[rng.Intn(len(pool))].Clone()
		switch rng.Intn(3) {
		case 0: // a duplicate
		case 1:
			r.Seqs[rng.Intn(len(r.Seqs))]++
		case 2:
			r.Key++
		}
		return r
	}

	sets := [2]*ResultSet{NewResultSet(), NewResultSet()}
	refs := [2]*refSet{newRefSet(), newRefSet()}
	var slots, chunks [2]int
	for i := 0; i < 12_000; i++ {
		r := next()
		switch i {
		case 1000:
			r = long(chunkWords - 2) // fills a chunk exactly
		case 2000:
			r = long(chunkWords - 1) // one word over: two chunk indices
		case 3000:
			r = long(3 * chunkWords)
		}
		pool = append(pool, r)
		k := rng.Intn(2)
		s, ref := sets[k], refs[k]
		if in, want := s.Contains(r), ref.Contains(r); in != want {
			t.Fatalf("add %d: Contains before Add = %v, reference %v", i, in, want)
		}
		if got, want := s.Add(r), ref.Add(r); got != want {
			t.Fatalf("add %d: Add = %v, reference %v", i, got, want)
		}
		if !s.Contains(r) {
			t.Fatalf("add %d: result missing right after Add", i)
		}
		if len(s.slots) == slots[k] && len(s.arena) == chunks[k] {
			continue
		}
		// The table or the arena just grew: every result seen so far must
		// still answer as it did.
		slots[k], chunks[k] = len(s.slots), len(s.arena)
		for _, p := range pool {
			if s.Contains(p) != ref.Contains(p) {
				t.Fatalf("add %d: after growth to %d slots, %d chunks: Contains(%v) = %v", i, slots[k], chunks[k], p, !ref.Contains(p))
			}
		}
		check(t, fmt.Sprintf("add %d", i), s, sets[1-k], ref, refs[1-k])
	}
	for k := range sets {
		check(t, "end", sets[k], sets[1-k], refs[k], refs[1-k])
		if len(sets[k].slots) < 1<<13 || len(sets[k].arena) < 5 {
			t.Fatalf("set %d grew to only %d slots, %d chunks", k, len(sets[k].slots), len(sets[k].arena))
		}
	}
}

// A probe that meets a result with its tag tells the two apart by their
// records, at every table size.
func TestResultSetTagCollisions(t *testing.T) {
	for _, p := range tagCollisions(t, 4) {
		s := NewResultSet()
		s.Add(p[0])
		for size := 0; size < 6; size++ {
			if s.Contains(p[1]) {
				t.Fatalf("%v reported present beside %v (equal tags) at %d slots", p[1], p[0], len(s.slots))
			}
			s.grow()
		}
		if !s.Add(p[1]) || s.Add(p[0]) || s.Len() != 2 {
			t.Fatalf("colliding pair %v: Len %d, want both kept once", p, s.Len())
		}
	}
}

// Contains and a duplicate Add allocate nothing.
func TestResultSetDoesNotAllocate(t *testing.T) {
	s := NewResultSet()
	for i := 0; i < 5000; i++ {
		s.Add(Result{Key: uint64(i), Seqs: []uint64{uint64(i), 2, 3}})
	}
	in, out := Result{Key: 7, Seqs: []uint64{7, 2, 3}}, Result{Key: 7, Seqs: []uint64{8, 2, 3}}
	if n := testing.AllocsPerRun(1000, func() {
		if !s.Contains(in) || s.Contains(out) {
			t.Fatal("wrong membership")
		}
	}); n != 0 {
		t.Fatalf("Contains: %v allocs per run", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Add(in) }); n != 0 {
		t.Fatalf("duplicate Add: %v allocs per run", n)
	}
}

// payload encodes results back to back, as an engine's ResultData does.
func payload(rs ...Result) []byte {
	var buf []byte
	for i := range rs {
		buf = rs[i].AppendTo(buf)
	}
	return buf
}

// The cursor yields what repeated DecodeResult calls do, with every
// result's Seqs capacity-clipped out of one allocation per payload.
func TestResultReader(t *testing.T) {
	want := []Result{{Key: 1, Seqs: []uint64{1, 2, 3}}, {Key: 2, Seqs: []uint64{}}, {Key: 3, Seqs: []uint64{9, 8}}}
	buf := payload(want...)
	rd, err := ReadResults(buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	var r Result
	for rd.Next(&r) {
		if cap(r.Seqs) != len(r.Seqs) {
			t.Fatalf("result %d: Seqs capacity %d past its length %d", len(got), cap(r.Seqs), len(r.Seqs))
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, want) || rd.Next(&r) {
		t.Fatalf("read %v, want %v", got, want)
	}
	got[0].Seqs = append(got[0].Seqs, 99)
	got[1].Seqs = append(got[1].Seqs, 99)
	if got[2].Seqs[0] != 9 {
		t.Fatal("appending to one result's Seqs wrote into another's")
	}
	if n := testing.AllocsPerRun(100, func() {
		rd, _ := ReadResults(buf)
		for rd.Next(&r) {
		}
	}); n != 1 {
		t.Fatalf("reading a payload: %v allocs, want 1", n)
	}
	if rd, err := ReadResults(nil); err != nil || rd.Next(&r) {
		t.Fatalf("ReadResults(nil) yields a result or fails (%v)", err)
	}
}

// A malformed payload is rejected whole, with the error DecodeResult
// gives for the first result it cannot read and that result's place.
func TestResultReaderRejectsWhole(t *testing.T) {
	good := payload(Result{Key: 1, Seqs: []uint64{1, 2}}, Result{Key: 2, Seqs: []uint64{3}})
	long := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(long[8:], 100)
	for _, tc := range []struct {
		name, want string
		buf        []byte
	}{
		{"short header", "short result buffer: 5 bytes (result 1 at byte 26)", good[:26+5]},
		{"truncated seqs", "truncated result: need 18 bytes, have 17 (result 1 at byte 26)", good[:len(good)-1]},
		{"trailing byte", "short result buffer: 1 bytes (result 2 at byte 44)", append(append([]byte(nil), good...), 0)},
		{"count too large", "truncated result: need 810 bytes, have 44 (result 0 at byte 0)", long},
	} {
		if _, err := ReadResults(tc.buf); err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("%s: ReadResults error = %v, want one ending %q", tc.name, err, tc.want)
		}
	}
}
