// Package join implements the symmetric m-way hash join operator used as
// the representative state-intensive operator, with its state organized as
// partition groups (paper §2): all per-input partitions sharing a partition
// ID form one group, the smallest unit of spill and relocation.
//
// Each group carries a generation number. The resident hash tables always
// hold the current generation; a spill extracts the resident tuples as one
// generation and advances the counter. Because a newly arriving tuple joins
// exactly the co-resident (same-generation) tuples, the run-time output of
// a group is precisely the set of matches whose members all share a
// generation — which is what makes the timestamp-free cleanup of package
// cleanup exact.
//
// The operator is serial: Process, the group-level state operations
// (spill extraction, relocation, merge, snapshots, purge) and the
// aggregates (MemBytes, Output, Stats) all run on the caller's goroutine,
// one at a time. An engine drives its operator from its handler
// goroutine; more cores means more engines, each owning its own groups.
package join

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// EmitFunc receives each produced join result. A nil EmitFunc puts the
// operator in count-only mode: matches are counted (and drive all
// statistics) without being materialized, which the long-running
// throughput experiments use to avoid drowning in result tuples. A
// probe calls it once per match, in nested-loop order over the inputs
// with the last input innermost.
//
// Ownership: the Result's Seqs slice is a scratch buffer owned by the
// caller and only valid for the duration of the call — the hot path
// reuses it for the next match instead of allocating per result. An
// implementation that retains the result beyond the call must copy it
// first (tuple.Result.Clone). The callback runs on the goroutine that
// called Process, before Process returns. See PROTOCOL.md "Performance".
type EmitFunc func(tuple.Result)

// Operator is one instance of the partitioned m-way symmetric hash join.
// It is not safe for concurrent use.
type Operator struct {
	inputs int
	part   partition.Func
	emit   EmitFunc
	window time.Duration // 0 = unbounded
	// groups is indexed by partition ID; nil = not resident.
	groups    []*group
	totalSize int64
	output    uint64
	// scratch buffers reused across probes to avoid per-tuple allocation:
	// per input, the matched seqs, the bound seq and the odometer digit.
	lists [][]uint64
	seqs  []uint64
	pos   []int
}

// rec is one resident tuple of a group of runs but for its seq; its
// stream and key are implied by the list holding it. The payload lives
// at pages[page][off : off+n]. Like every type a group allocates per
// tuple or per key it holds no pointer, so the collector never scans
// tuple state (DESIGN.md "Resident state layout").
type rec struct {
	ts   vclock.Time
	page uint32
	off  uint32
	n    uint32
}

// list locates the n tuples of one (key, input). In a group of runs
// their records are recs[chunk][off : off+n] and their seqs the column
// seqs[chunk][off : off+n]; a logged group keeps only the count, and in
// off the bytes its tuples' encodings take in the log.
type list struct {
	chunk, off, n uint32
}

// slot is one cell of a group's open-addressing key table.
type slot struct {
	key uint64
	ent uint32 // entry index + 1; 0 = empty
}

// slab hands out non-overlapping runs of T from fixed-size chunks that
// are never re-copied, so a run's (chunk, offset) address is stable and
// 32-bit offsets suffice however large the group grows. Space inside a
// chunk is not handed out again while any of its runs is in use, but a
// chunk whose runs have all been released is reused or dropped: runs
// carved around the same time tend to be released around the same time,
// so what a slab holds stays proportional to what is in use.
type slab[T any] struct {
	chunks [][]T
	refs   []uint32 // per chunk: runs carved and not released
	cur    uint32   // chunk being carved + 1; 0 = none
	spare  []T      // an emptied shared chunk awaiting reuse, or nil
}

// carve reserves a run of n elements and returns its address. A run
// longer than a quarter chunk gets a chunk of its own, so the end of a
// shared chunk wastes less than that.
func (s *slab[T]) carve(n, chunkLen int) (chunk, off uint32) {
	if 4*n > chunkLen {
		s.chunks = append(s.chunks, make([]T, n))
		s.refs = append(s.refs, 1)
		return uint32(len(s.chunks) - 1), 0
	}
	if s.cur == 0 || cap(s.chunks[s.cur-1])-len(s.chunks[s.cur-1]) < n {
		if s.cur != 0 && s.refs[s.cur-1] == 0 {
			s.drop(s.cur-1, chunkLen)
		}
		c := s.spare
		s.spare = nil
		if c == nil {
			c = make([]T, 0, chunkLen)
		}
		s.chunks = append(s.chunks, c)
		s.refs = append(s.refs, 0)
		s.cur = uint32(len(s.chunks))
	}
	c := s.chunks[s.cur-1]
	s.chunks[s.cur-1] = c[:len(c)+n]
	s.refs[s.cur-1]++
	return s.cur - 1, uint32(len(c))
}

// release gives back one run of chunk.
func (s *slab[T]) release(chunk uint32, chunkLen int) {
	if s.refs[chunk]--; s.refs[chunk] == 0 && chunk+1 != s.cur {
		s.drop(chunk, chunkLen)
	}
}

// drop lets go of a chunk without live runs, keeping a shared one as
// the spare the next carve starts on: growing lists release runs as fast
// as they carve them, and a chunk reused at once is not zeroed again.
func (s *slab[T]) drop(chunk uint32, chunkLen int) {
	if cap(s.chunks[chunk]) == chunkLen {
		s.spare = s.chunks[chunk][:0]
	}
	s.chunks[chunk] = nil
}

const (
	recChunkLen  = 1024     // records per chunk (24 KiB of runs + 8 KiB of seqs)
	pageBytes    = 64 << 10 // payload page and log chunk size
	firstListCap = 4        // a key's first list run
	minSlots     = 16
	// hashMul spreads keys over the slots (Fibonacci hashing); the keys
	// of one group share their partition's residue, so low bits cannot.
	hashMul = 0x9E3779B97F4A7C15
)

// group is the in-memory state of one partition group, restricted to
// the current generation: one key table whose entry holds the per-input
// lists side by side, and either the records those lists point into with
// the append-only pages holding the payload bytes, or the log.
type group struct {
	id  partition.ID
	gen uint32
	// slots is the key table (linear probing, power-of-two length, at
	// most half full); entry e's lists are lists[e*inputs : (e+1)*inputs].
	// An entry is never removed on its own: one whose lists are all
	// empty is dead weight that Purge reclaims by rebuilding.
	slots []slot
	shift uint8 // 64 - log2(len(slots))
	lists []list
	// An operator whose probes read records keeps each list as a run in
	// recs and its seqs, all a probe emits, as a dense column at the same
	// address in seqs (carveRun keeps the two slabs in step); any other
	// logs every tuple in arrival order, as the bytes tuple.AppendTo
	// writes, into chunks that never regrow, chunk k starting with the
	// group's tuple logFirst[k] (see Operator.readsRecords).
	recs     slab[rec]
	seqs     slab[uint64]
	log      [][]byte
	logFirst []int
	pages    slab[byte]

	size  int64
	cum   int64 // lifetime bytes ever inserted (survives spills)
	count int
	// counts tracks resident tuples per input, so snapshots can
	// preallocate their flattened per-input slices exactly.
	counts []int
	// purged counts tuples dropped by Purge since the generation's
	// storage was last rebuilt: their records' payload bytes are dead.
	purged int
	output uint64 // lifetime results produced by this group (P_output)
	// spilledTs is the maximum timestamp among tuples ever spilled from
	// this group (windowed mode): resident tuples at or before
	// spilledTs+window may still owe cross-generation matches to disk
	// state and must not be purged (they are spilled instead).
	spilledTs   vclock.Time
	everSpilled bool
	// newest is, per input, the largest timestamp that ever landed in
	// the group (windowed mode; nil until a tuple lands): inputs reach
	// a group in timestamp order, so Expire never cuts past it.
	newest []vclock.Time
}

func newGroup(id partition.ID, gen uint32, inputs int) *group {
	return &group{id: id, gen: gen, counts: make([]int, inputs)}
}

// seek returns the slot holding key or, if there is none, the empty slot
// where it belongs.
func (g *group) seek(key uint64) *slot {
	mask := uint64(len(g.slots) - 1)
	for h := key * hashMul >> g.shift; ; h = (h + 1) & mask {
		if s := &g.slots[h]; s.ent == 0 || s.key == key {
			return s
		}
	}
}

// entry returns the index in g.lists of key's first list, adding an
// entry with empty lists if the key is new. It is the one table probe a
// tuple pays: the caller reads the other inputs' lists and appends to
// its own through the same index.
func (g *group) entry(key uint64) int {
	inputs := len(g.counts)
	if 2*len(g.lists) >= inputs*len(g.slots) {
		old := g.slots
		g.slots = make([]slot, max(minSlots, 2*len(old)))
		g.shift = uint8(64 - bits.TrailingZeros(uint(len(g.slots))))
		for _, s := range old {
			if s.ent != 0 {
				*g.seek(s.key) = s
			}
		}
	}
	s := g.seek(key)
	if s.ent == 0 {
		g.lists = append(g.lists, make([]list, inputs)...)
		*s = slot{key: key, ent: uint32(len(g.lists) / inputs)}
	}
	return int(s.ent-1) * inputs
}

// run returns the records of l.
func (g *group) run(l list) []rec {
	if l.n == 0 {
		return nil // an empty list holds no run (see insert and purgeList)
	}
	return g.recs.chunks[l.chunk][l.off : l.off+l.n]
}

// col returns the seqs of l, in the order of its records.
func (g *group) col(l list) []uint64 {
	if l.n == 0 {
		return nil
	}
	return g.seqs.chunks[l.chunk][l.off : l.off+l.n]
}

// carveRun reserves a run of n records and its seq column. Both slabs
// see the same carves and releases, so they hand out the same address.
func (g *group) carveRun(n int) (chunk, off uint32) {
	chunk, off = g.recs.carve(n, recChunkLen)
	if c, o := g.seqs.carve(n, recChunkLen); c != chunk || o != off {
		panic(fmt.Sprintf("join: group %d: seq column at (%d, %d), its run at (%d, %d)", g.id, c, o, chunk, off))
	}
	return chunk, off
}

// releaseRun gives back one run of chunk and its seq column.
func (g *group) releaseRun(chunk uint32) {
	g.recs.release(chunk, recChunkLen)
	g.seqs.release(chunk, recChunkLen)
}

// insert stores seq and r at the end of l's run, or — when ordered — at
// their timestamp position (binary insertion into the tail, so slightly
// out-of-order arrivals keep the list sorted for windowBounds).
func (g *group) insert(l *list, seq uint64, r *rec, ordered bool) {
	// Runs hold 4, 6, 8, 12, 16, 24, … records (2^k, k ≥ 2, and 3·2^k,
	// k ≥ 1) and a list moves only when it fills one, so l.n alone says
	// when; a list a purge shortened moves early, never late.
	if odd := l.n >> bits.TrailingZeros32(l.n); l.n == 0 || l.n >= firstListCap && odd <= 3 {
		// Move the list to a run half or a third longer, 2× every other
		// step (amortized O(1) copies): contiguous lists at the price of
		// slack, the layout trade-off arXiv:2112.02480 §4 measures.
		old := *l
		n := max(firstListCap, l.n+l.n/uint32(1+bits.OnesCount32(l.n)))
		l.chunk, l.off = g.carveRun(int(n))
		if old.n > 0 {
			copy(g.recs.chunks[l.chunk][l.off:], g.run(old))
			copy(g.seqs.chunks[l.chunk][l.off:], g.col(old))
			g.releaseRun(old.chunk)
		}
	}
	l.n++
	rs, seqs := g.run(*l), g.col(*l)
	i := len(rs) - 1
	if ordered && i > 0 && rs[i-1].ts > r.ts {
		i = sort.Search(i, func(j int) bool { return rs[j].ts > r.ts })
		copy(rs[i+1:], rs[i:])
		copy(seqs[i+1:], seqs[i:])
	}
	rs[i], seqs[i] = *r, seq
}

// push appends t's encoding, as input stream's, to the group's log and
// counts it in l: a sequential write, where insert's is a cache miss
// into l's run. A tuple that does not fit the current chunk starts a
// chunk of its own size or more, so written log bytes never move and
// snapshots alias them.
func (g *group) push(l *list, stream int, t *tuple.Tuple) {
	c := len(g.log) - 1
	if n := t.EncodedSize(); c < 0 || cap(g.log[c])-len(g.log[c]) < n {
		g.log = append(g.log, make([]byte, 0, max(pageBytes, n)))
		g.logFirst = append(g.logFirst, g.count)
		c++
	}
	at := len(g.log[c])
	g.log[c] = t.AppendTo(g.log[c])
	g.log[c][at] = uint8(stream)
	l.n++
	l.off += uint32(len(g.log[c]) - at)
}

// landed raises input stream's newest timestamp to ts.
func (g *group) landed(stream int, ts vclock.Time) {
	if g.newest == nil {
		g.newest = make([]vclock.Time, len(g.counts))
	}
	g.newest[stream] = max(g.newest[stream], ts)
}

// view rebuilds the Tuple that seq and r store in input stream's list
// of key. The payload aliases the group's page, whose written bytes
// never change.
func (g *group) view(stream int, key, seq uint64, r *rec) tuple.Tuple {
	t := tuple.Tuple{Stream: uint8(stream), Key: key, Seq: seq, Ts: r.ts}
	if r.n > 0 {
		t.Payload = g.pages.chunks[r.page][r.off : r.off+r.n : r.off+r.n]
	}
	return t
}

// add stores t in input stream's list of entry e, without probing, and
// accounts for it. The payload is copied into the group's pages or log.
func (o *Operator) add(g *group, e, stream int, t *tuple.Tuple) {
	if l := &g.lists[e+stream]; o.readsRecords() {
		r := rec{ts: t.Ts, n: uint32(len(t.Payload))}
		if r.n > 0 {
			r.page, r.off = g.pages.carve(len(t.Payload), pageBytes)
			copy(g.pages.chunks[r.page][r.off:], t.Payload)
		}
		// Windowed lists stay timestamp-sorted so window probes can
		// binary-search their bounds.
		if o.window > 0 {
			g.landed(stream, t.Ts)
		}
		g.insert(l, t.Seq, &r, o.window > 0)
	} else {
		g.push(l, stream, t)
	}
	sz := t.MemSize()
	g.size += sz
	g.count++
	g.counts[stream]++
	o.totalSize += sz
}

// land appends every tuple of snap to g, in snapshot order and without
// probing: every tier reaches a group through here (Merge), and so does
// a group rebuilt from itself (Purge).
func (o *Operator) land(g *group, snap *GroupSnapshot) {
	var t tuple.Tuple
	for i := range snap.Inputs {
		for r := snap.Input(i); r.Next(&t); {
			o.add(g, g.entry(t.Key), int(t.Stream), &t)
		}
	}
}

// unload empties g's current generation and returns its snapshot.
func (o *Operator) unload(g *group) *GroupSnapshot {
	snap := g.snapshotOf(g.snapshot(!o.readsRecords()))
	o.totalSize -= g.size
	*g = group{
		id: g.id, gen: g.gen, cum: g.cum, output: g.output, counts: g.counts,
		spilledTs: g.spilledTs, everSpilled: g.everSpilled, newest: g.newest,
	}
	clear(g.counts)
	return snap
}

// New returns an m-way join operator over inputs streams partitioned by
// part. It panics if inputs < 2, as a join needs at least two inputs.
func New(inputs int, part partition.Func, emit EmitFunc) *Operator {
	if inputs < 2 {
		panic(fmt.Sprintf("join: need at least 2 inputs, got %d", inputs))
	}
	return &Operator{
		inputs: inputs,
		part:   part,
		emit:   emit,
		groups: make([]*group, part.N()),
		lists:  make([][]uint64, inputs),
		seqs:   make([]uint64, inputs),
		pos:    make([]int, inputs),
	}
}

// Inputs reports the number of join inputs.
func (o *Operator) Inputs() int { return o.inputs }

// find returns group id's index in groups (-1 if id is beyond the
// partition function's range) and the group, if resident.
func (o *Operator) find(id partition.ID) (int, *group) {
	if i := int(id); i < len(o.groups) {
		return i, o.groups[i]
	}
	return -1, nil
}

// resident calls fn for every resident group in partition ID order.
func (o *Operator) resident(fn func(*group)) {
	for _, g := range o.groups {
		if g != nil {
			fn(g)
		}
	}
}

// MemBytes reports the total resident operator-state size in bytes.
func (o *Operator) MemBytes() int64 { return o.totalSize }

// Output reports the total number of results produced so far.
func (o *Operator) Output() uint64 { return o.output }

// Groups reports the number of partition groups resident in the operator
// (including groups whose current generation is empty).
func (o *Operator) Groups() int {
	n := 0
	o.resident(func(*group) { n++ })
	return n
}

// Process runs one tuple through the join: probe the other inputs'
// resident tables in the tuple's partition group, emit/count all matches,
// then insert the tuple into its own table. It returns the number of
// results produced. The operator stores its own copy of t.Payload: the
// caller's buffer is free for reuse as soon as Process returns.
func (o *Operator) Process(t tuple.Tuple) (uint64, error) {
	if int(t.Stream) >= o.inputs {
		return 0, fmt.Errorf("join: tuple for stream %d in %d-way join", t.Stream, o.inputs)
	}
	return o.process(o.part.Of(t.Key), &t), nil
}

// process is the per-tuple hot path, called with a validated stream and
// the tuple's partition ID. One table probe finds the key's entry; the
// other inputs' lists in it are the matches and the tuple's own list
// takes the insert. t is passed by pointer: a by-value copy reloads the
// one-byte Stream as a word, which waits for the store buffer to drain
// the previous tuple's writes — cache misses into a list's run when the
// operator reads records, a sequential log append when it does not.
func (o *Operator) process(id partition.ID, t *tuple.Tuple) uint64 {
	g := o.groups[id]
	if g == nil {
		g = newGroup(id, 0, o.inputs)
		o.groups[id] = g
	}
	e := g.entry(t.Key)
	produced := o.probe(g, g.lists[e:e+o.inputs], t)
	g.output += produced
	o.output += produced
	o.add(g, e, int(t.Stream), t)
	g.cum += t.MemSize()
	return produced
}

// readsRecords reports whether probes read stored records — to
// enumerate matches or to bound them by the window. Such an operator's
// groups keep each list in a contiguous run; any other's probes read
// only list lengths, so its groups log tuples in arrival order instead
// and only snapshots read the log back.
func (o *Operator) readsRecords() bool { return o.emit != nil || o.window > 0 }

// probe counts (and, when materializing, emits) the matches of t against
// the other inputs' resident tuples, whose lists are ls. Count-only
// probing of an unbounded join reads nothing but the list lengths; any
// other probe reads the matched lists' seq columns, and a windowed one
// their records' timestamps too.
func (o *Operator) probe(g *group, ls []list, t *tuple.Tuple) uint64 {
	count := uint64(1)
	if !o.readsRecords() {
		for i, l := range ls {
			if i != int(t.Stream) {
				count *= uint64(l.n)
			}
		}
		return count
	}
	for i, l := range ls {
		if i == int(t.Stream) {
			continue
		}
		seqs := g.col(l)
		if o.window > 0 {
			seqs = windowBounds(g.run(l), seqs, t.Ts, o.window)
		}
		if len(seqs) == 0 {
			return 0
		}
		o.lists[i] = seqs
		count *= uint64(len(seqs))
	}
	if o.emit != nil {
		o.enumerate(t)
	}
	return count
}

// enumerate emits one Result per combination of t with one seq from each
// matched list in o.lists, in nested-loop order with the last input
// innermost. It is an odometer: the innermost matched input's loop calls
// emit directly, and when it runs out the outer inputs advance like
// digits. The emitted Result shares the operator's scratch seqs buffer (see
// the EmitFunc ownership contract), so enumeration allocates nothing.
func (o *Operator) enumerate(t *tuple.Tuple) {
	self, lists, seqs, pos := int(t.Stream), o.lists, o.seqs, o.pos
	inner := len(lists) - 1
	if inner == self {
		inner--
	}
	seqs[self] = t.Seq
	for i := 0; i < inner; i++ {
		if i != self {
			pos[i], seqs[i] = 0, lists[i][0]
		}
	}
	emit, r, cell, last := o.emit, tuple.Result{Key: t.Key, Seqs: seqs}, &seqs[inner], lists[inner]
	for {
		for _, q := range last {
			*cell = q
			emit(r)
		}
		i := inner - 1
		for ; i >= 0; i-- {
			if i == self {
				continue
			}
			if pos[i]++; pos[i] < len(lists[i]) {
				seqs[i] = lists[i][pos[i]]
				break
			}
			pos[i], seqs[i] = 0, lists[i][0]
		}
		if i < 0 {
			return
		}
	}
}

// Stats returns the per-group statistics the local adaptation controller
// feeds into the spill/move policies, sorted by partition ID for
// determinism.
func (o *Operator) Stats() []core.GroupStats {
	stats := make([]core.GroupStats, 0, o.part.N())
	o.resident(func(g *group) {
		stats = append(stats, core.GroupStats{ID: g.id, Size: g.size, CumBytes: g.cum, Output: g.output})
	})
	return stats
}

// GroupSnapshot is one partition group generation as every tier holds
// it — a spill segment, a relocation or seed image, a follower's standby:
// the group's header fields and its tuples in the encoding the snapshot
// is written in (EncodeSnapshot), so no tier decodes what it only stores
// or ships.
type GroupSnapshot struct {
	ID  partition.ID
	Gen uint32
	// Output is the group's lifetime result counter; it travels with the
	// group during relocation so productivity remains meaningful at the
	// receiver. Spill extraction leaves the counter in the operator.
	Output uint64
	// CumBytes is the group's lifetime inserted-bytes counter, the
	// productivity metric's denominator; like Output it travels with
	// relocations.
	CumBytes int64
	// SpilledTs / EverSpilled carry the group's purge watermark
	// (windowed mode): the maximum timestamp ever spilled from the
	// group. They travel with relocations, like the disk segments whose
	// pending matches they protect.
	SpilledTs   vclock.Time
	EverSpilled bool
	// Inputs holds, per join input, that input's tuples as tuple.Batch
	// encodes them: a uint32 count, then each tuple as Tuple.AppendTo
	// writes it, its stream byte the input's index. nil is an input
	// without tuples. The bytes may alias a store's buffer or an image's
	// and are never written in place: Input reads them, Append replaces
	// an input with a longer copy. Anything else that fills an input
	// must write this shape (DecodeSnapshot checks it on the way in).
	Inputs [][]byte
}

// memOverEncoded is how much a tuple's accounted size (Tuple.MemSize)
// exceeds its encoding: both are a constant plus the payload.
var memOverEncoded = (&tuple.Tuple{}).MemSize() - int64((&tuple.Tuple{}).EncodedSize())

// count reports how many tuples an input holds.
func count(in []byte) int {
	if len(in) < 4 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(in))
}

// Input returns a cursor over input i's tuples, in snapshot order. The
// tuples it yields alias the snapshot's bytes.
func (s *GroupSnapshot) Input(i int) tuple.BatchReader {
	if n := count(s.Inputs[i]); n > 0 {
		return tuple.TrustedRun(s.Inputs[i][4:], n)
	}
	return tuple.BatchReader{}
}

// Append adds the tuples of runs — each encoded back to back, as
// repeated Tuple.AppendTo writes them — each to the end of the input its
// stream byte names, in order. Every run is checked before anything
// changes. An input that grows is replaced by one allocation of its new
// size, in a copy of Inputs, so nothing the snapshot's bytes alias, and
// no copy of the snapshot, is written.
func (s *GroupSnapshot) Append(runs ...[]byte) error {
	grow, counts := make([]int, len(s.Inputs)), make([]uint32, len(s.Inputs))
	readers := make([]tuple.BatchReader, len(runs))
	var t tuple.Tuple
	for j, run := range runs {
		r, err := tuple.ReadRun(run)
		if err != nil {
			return fmt.Errorf("join: run %d for group %d: %w", j, s.ID, err)
		}
		for readers[j] = r; r.Next(&t); {
			if int(t.Stream) >= len(s.Inputs) {
				return fmt.Errorf("join: run %d for group %d holds a tuple for input %d of %d", j, s.ID, t.Stream, len(s.Inputs))
			}
			grow[t.Stream] += t.EncodedSize()
			counts[t.Stream]++
		}
	}
	inputs := slices.Clone(s.Inputs)
	for i, n := range grow {
		if old := inputs[i]; n > 0 {
			inputs[i] = make([]byte, 4, max(4, len(old))+n)
			binary.LittleEndian.PutUint32(inputs[i], uint32(count(old))+counts[i])
			inputs[i] = append(inputs[i], old[min(4, len(old)):]...)
		}
	}
	for _, r := range readers {
		for r.Next(&t) {
			inputs[t.Stream] = t.AppendTo(inputs[t.Stream])
		}
	}
	s.Inputs = inputs
	return nil
}

// TupleCount reports the number of tuples across all inputs.
func (s *GroupSnapshot) TupleCount() int {
	n := 0
	for _, in := range s.Inputs {
		n += count(in)
	}
	return n
}

// MemBytes reports the accounted size of all tuples in the snapshot.
func (s *GroupSnapshot) MemBytes() int64 {
	n := memOverEncoded * int64(s.TupleCount())
	for _, in := range s.Inputs {
		n += int64(max(len(in), 4) - 4) // the tuples' encodings
	}
	return n
}

// snapshot encodes the group's lists as snapshot inputs, each input in
// key order and each list in its own order, all in one allocation of
// exactly their size. A group of runs appends each record's view; a
// logged group copies each tuple's log bytes, in arrival order, to its
// list's place, which the lists' byte counts give.
func (g *group) snapshot(logged bool) [][]byte {
	inputs := len(g.counts)
	keys := make([]slot, 0, len(g.lists)/inputs)
	for _, s := range g.slots {
		if s.ent != 0 {
			keys = append(keys, s)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key < keys[b].key })
	buf := make([]byte, 4*int64(inputs)+g.size-memOverEncoded*int64(g.count))
	out := make([][]byte, inputs)
	var at []int // logged: per list, where its next tuple goes in buf
	if logged {
		at = make([]int, len(g.lists))
	}
	off := 0
	for i := range out {
		start := off
		binary.LittleEndian.PutUint32(buf[off:], uint32(g.counts[i]))
		off += 4
		for _, s := range keys {
			e := int(s.ent-1)*inputs + i
			if logged {
				at[e] = off
				off += int(g.lists[e].off)
				continue
			}
			rs, seqs := g.run(g.lists[e]), g.col(g.lists[e])
			for j := range rs {
				t := g.view(i, s.key, seqs[j], &rs[j])
				off = len(t.AppendTo(buf[:off]))
			}
		}
		out[i] = buf[start:off:off]
	}
	if off != len(buf) {
		panic(fmt.Sprintf("join: group %d encodes to %d bytes, its accounting says %d", g.id, off, len(buf)))
	}
	var t tuple.Tuple
	for k, c := range g.log {
		end := g.count
		if k+1 < len(g.log) {
			end = g.logFirst[k+1]
		}
		pos := 0
		for r := tuple.TrustedRun(c, end-g.logFirst[k]); r.Next(&t); {
			e := int(g.seek(t.Key).ent-1)*inputs + int(t.Stream)
			n := copy(buf[at[e]:], c[pos:pos+t.EncodedSize()])
			at[e] += n
			pos += n
		}
	}
	return out
}

// snapshotOf wraps inputs in the group's snapshot header.
func (g *group) snapshotOf(inputs [][]byte) *GroupSnapshot {
	return &GroupSnapshot{
		ID: g.id, Gen: g.gen, Output: g.output, CumBytes: g.cum,
		SpilledTs: g.spilledTs, EverSpilled: g.everSpilled, Inputs: inputs,
	}
}

// ExtractForSpill removes the resident (current-generation) tuples of the
// given group and returns them as a snapshot tagged with the generation
// they belonged to. The group stays registered with an advanced generation
// and empty state, so new tuples with the same partition ID accumulate
// into a fresh generation, as described in paper §3. Extracting a group
// with no resident tuples returns nil.
func (o *Operator) ExtractForSpill(id partition.ID) *GroupSnapshot {
	snap, _ := o.SpillTo(id, func(*GroupSnapshot) error { return nil })
	return snap
}

// SpillTo is ExtractForSpill with the segment handed to persist before
// the group moves on to its next generation. If persist fails the
// extraction is undone: the group keeps its tuples, its generation and
// its purge watermark, since nothing reached the disk that could owe
// them a match, and the error is returned.
func (o *Operator) SpillTo(id partition.ID, persist func(*GroupSnapshot) error) (*GroupSnapshot, error) {
	_, g := o.find(id)
	if g == nil || g.count == 0 {
		return nil, nil
	}
	snap := o.unload(g)
	next := snap.Seal(g.gen)
	if err := persist(snap); err != nil {
		o.land(g, snap)
		return nil, err
	}
	g.gen, g.spilledTs, g.everSpilled = next.Gen, next.SpilledTs, true
	return snap, nil
}

// Seal turns s — a group's memory tier — into the spilled segment of
// generation gen: it advances the purge watermark over the tuples s
// holds and returns the empty memory tier that follows at gen+1. The
// primary's spill extraction and the follower's standby demotion both
// seal through here, so their boundaries and watermarks agree. Sealing
// a sealed segment at its own generation only yields the tier after it.
func (s *GroupSnapshot) Seal(gen uint32) *GroupSnapshot {
	var t tuple.Tuple
	for i := range s.Inputs {
		for r := s.Input(i); r.Next(&t); {
			if !s.EverSpilled || t.Ts > s.SpilledTs {
				s.SpilledTs, s.EverSpilled = t.Ts, true
			}
		}
	}
	s.Gen, s.EverSpilled = gen, true
	return &GroupSnapshot{
		ID: s.ID, Gen: gen + 1, Output: s.Output, CumBytes: s.CumBytes,
		SpilledTs: s.SpilledTs, EverSpilled: true, Inputs: make([][]byte, len(s.Inputs)),
	}
}

// RemoveForRelocation removes the group entirely (resident tuples,
// generation counter, and lifetime output) and returns its snapshot for
// transfer to another machine. It returns nil if the group is not
// resident. Unlike spill extraction the generation is NOT advanced: the
// receiver continues the same generation, since the transferred tuples
// stay active in memory.
func (o *Operator) RemoveForRelocation(id partition.ID) *GroupSnapshot {
	i, g := o.find(id)
	if g == nil {
		return nil
	}
	o.groups[i] = nil
	return o.unload(g)
}

// Merge folds a group snapshot into this operator. If the group is
// absent it is registered from the snapshot — a relocation's receiver —
// and new arrivals for the partition join against its tuples; if it is
// already resident the snapshot's tuples are appended WITHOUT probing — they
// already produced their results at the old primary, so emitting joins
// here would duplicate output. A promoted follower uses it to turn warm
// standby copies into resident state. The payloads are copied: the
// snapshot's bytes are not kept.
func (o *Operator) Merge(snap *GroupSnapshot) error {
	g, err := o.adopt(snap)
	if err != nil {
		return err
	}
	o.land(g, snap)
	g.cum = max(g.cum, snap.CumBytes, g.size)
	g.spilledTs = max(g.spilledTs, snap.SpilledTs)
	g.everSpilled = g.everSpilled || snap.EverSpilled
	return nil
}

// adopt returns the group snap lands in, registered from snap's header
// if it is not resident.
func (o *Operator) adopt(snap *GroupSnapshot) (*group, error) {
	i, g := o.find(snap.ID)
	switch {
	case len(snap.Inputs) != o.inputs:
		return nil, fmt.Errorf("join: snapshot has %d inputs, operator has %d", len(snap.Inputs), o.inputs)
	case i < 0:
		return nil, fmt.Errorf("join: group %d outside the %d partitions", snap.ID, o.part.N())
	case g == nil:
		g = newGroup(snap.ID, snap.Gen, o.inputs)
		g.output, g.spilledTs = snap.Output, snap.SpilledTs
		o.groups[i] = g
	}
	return g, nil
}

// MergeRuns appends the tuples of runs — each encoded back to back as
// repeated tuple.AppendTo writes them — to group id WITHOUT probing, in
// order: a demoted primary's final tail lands here straight off the
// wire. It merges an empty snapshot with the runs appended, so every run
// is checked before any tuple lands; an absent group starts at 0.
func (o *Operator) MergeRuns(id partition.ID, runs ...[]byte) error {
	snap := &GroupSnapshot{ID: id, Inputs: make([][]byte, o.inputs)}
	if err := snap.Append(runs...); err != nil {
		return err
	}
	return o.Merge(snap)
}

// CatchUp lands snap, the next generation of its group, and counts —
// emitting them too when the operator materializes — the matches of its
// tuples with at least one member in an older generation: what the
// run-time phase missed (package cleanup says why exactly). An
// unwindowed operator's lists keep arrival order, so the older
// generations are each list's prefix up to the mark taken before snap
// lands. A positive window keeps the matches spanning at most window;
// that reads timestamps, which only an emitting operator keeps.
func (o *Operator) CatchUp(snap *GroupSnapshot, window time.Duration) (tuples int, results uint64, err error) {
	if o.window > 0 || window > 0 && o.emit == nil {
		return 0, 0, fmt.Errorf("join: catch-up needs an unwindowed operator, and an emitting one for a window")
	}
	g, err := o.adopt(snap)
	if err != nil {
		return 0, 0, err
	}
	marks := make([]uint32, len(g.lists))
	for e, l := range g.lists {
		marks[e] = l.n
	}
	var t tuple.Tuple
	for s := range snap.Inputs {
		for r := snap.Input(s); r.Next(&t); {
			e := g.entry(t.Key)
			if e < len(marks) { // a key new in snap has no old partner
				results += o.missed(g, g.lists[e:e+o.inputs], marks[e:e+o.inputs], &t, window)
			}
			o.add(g, e, int(t.Stream), &t)
			tuples++
		}
	}
	return tuples, results, nil
}

// missed counts (and emits) t's matches with at least one partner below
// its list's old mark. Unwindowed, they are all matches less the
// all-current ones, and a materializing operator enumerates them by the
// first input k whose partner is old: the inputs before k bind current
// partners, k an old one and the inputs after k any.
func (o *Operator) missed(g *group, ls []list, old []uint32, t *tuple.Tuple, window time.Duration) uint64 {
	self := int(t.Stream)
	if window > 0 {
		o.seqs[self] = t.Seq
		return o.span(g, ls, old, t, 0, false, t.Ts, t.Ts, window)
	}
	if o.emit == nil {
		all, cur := uint64(1), uint64(1)
		for j, l := range ls {
			if j != self {
				all *= uint64(l.n)
				cur *= uint64(l.n - old[j])
			}
		}
		return all - cur
	}
	count := uint64(0)
	for k := range ls {
		if k == self || old[k] == 0 {
			continue
		}
		n := uint64(1)
		for j, l := range ls {
			if j == self {
				continue
			}
			seqs := g.col(l)
			switch {
			case j < k:
				seqs = seqs[old[j]:]
			case j == k:
				seqs = seqs[:old[j]]
			}
			if n *= uint64(len(seqs)); n == 0 {
				break
			}
			o.lists[j] = seqs
		}
		if n > 0 {
			o.enumerate(t)
			count += n
		}
	}
	return count
}

// span binds a partner of t on every input from j on, pruning any
// partial combination whose timestamps lo..hi already span more than
// window, and counts (and emits) the complete ones that have an old
// partner.
func (o *Operator) span(g *group, ls []list, old []uint32, t *tuple.Tuple, j int, anyOld bool, lo, hi vclock.Time, window time.Duration) uint64 {
	if j == int(t.Stream) {
		j++
	}
	if j == len(ls) {
		if !anyOld {
			return 0
		}
		o.emit(tuple.Result{Key: t.Key, Seqs: o.seqs})
		return 1
	}
	count := uint64(0)
	rs, seqs := g.run(ls[j]), g.col(ls[j])
	for i := range rs {
		if l, h := min(lo, rs[i].ts), max(hi, rs[i].ts); h.Sub(l) <= window {
			o.seqs[j] = seqs[i]
			count += o.span(g, ls, old, t, j+1, anyOld || i < int(old[j]), l, h, window)
		}
	}
	return count
}

// ResidentSnapshot returns the current-generation state of the group
// without removing it, used by the cleanup phase to merge the final
// memory-resident generation with the disk-resident ones. Returns nil if
// the group is not resident.
func (o *Operator) ResidentSnapshot(id partition.ID) *GroupSnapshot {
	_, g := o.find(id)
	if g == nil {
		return nil
	}
	return g.snapshotOf(g.snapshot(!o.readsRecords()))
}

// ResidentIDs returns the sorted IDs of all resident groups.
func (o *Operator) ResidentIDs() []partition.ID {
	ids := make([]partition.ID, 0, o.part.N())
	o.resident(func(g *group) { ids = append(ids, g.id) })
	return ids
}
