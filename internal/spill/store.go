// Package spill implements the state spill side of the paper's run-time
// adaptation: a segment store holding spilled partition-group generations
// (file-backed for real disk behaviour, memory-backed for fast tests), and
// a manager that executes a spill — select victims via a core.Policy,
// extract their resident generation from the join operator, and persist it.
package spill

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/join"
	"repro/internal/partition"
)

// Store persists spilled partition-group generations. Segments for the
// same group are returned in generation order, which the cleanup phase
// relies on. A store keeps each segment as the bytes join.EncodeSnapshot
// writes; the two implementations differ only in where those bytes live.
// A segment it returns aliases bytes the store owns and nothing writes
// again (join.DecodeSnapshot), so reading one copies nothing.
// Implementations are safe for concurrent use.
type Store interface {
	// Write persists one generation snapshot, as a copy: the caller may
	// reuse whatever snap's inputs alias once it returns. Writing a
	// (group, generation) the store already holds replaces it, so a
	// retried install converges instead of duplicating the segment.
	Write(snap *join.GroupSnapshot) error
	// Read returns all segments of the group, sorted by generation.
	Read(id partition.ID) ([]*join.GroupSnapshot, error)
	// Remove returns and deletes all segments of the group, sorted by
	// generation — used when a group relocates and its disk-resident
	// generations follow it to the receiving machine. On error the
	// returned segments are the ones already deleted; the rest are still
	// stored.
	Remove(id partition.ID) ([]*join.GroupSnapshot, error)
	// Last returns the header of the group's last segment — generation,
	// counters and purge watermark, no tuples — or nil if the group has
	// none. It costs a few bytes of I/O, not a Read.
	Last(id partition.ID) (*join.GroupSnapshot, error)
	// Groups returns the sorted IDs of all groups with segments.
	Groups() []partition.ID
	// SegmentCount reports the total number of stored segments.
	SegmentCount() int
	// Bytes reports the total encoded size of all stored segments.
	Bytes() int64
	// BytesOf reports the encoded size of one group's segments — the
	// replication plane charges it as lag until the segments have been
	// shipped to the group's follower.
	BytesOf(id partition.ID) int64
	// Close releases resources. Read-after-Close is undefined.
	Close() error
}

// index is what both stores know about their segments: per group, in
// ascending generation order, with the totals the accounting reads.
type index struct {
	mu    sync.Mutex
	segs  map[partition.ID][]segment
	count int
	bytes int64
}

// segment is one index entry. buf, the encoded segment, is set by
// MemStore only; FileStore keeps it in the segment's file.
type segment struct {
	gen  uint32
	size int64
	buf  []byte
}

// put indexes seg under id, replacing an entry of the same generation.
func (x *index) put(id partition.ID, seg segment) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.segs == nil {
		x.segs = make(map[partition.ID][]segment)
	}
	segs := x.segs[id]
	i := sort.Search(len(segs), func(i int) bool { return segs[i].gen >= seg.gen })
	if i < len(segs) && segs[i].gen == seg.gen {
		x.bytes += seg.size - segs[i].size
		segs[i] = seg
		return
	}
	x.segs[id] = slices.Insert(segs, i, seg)
	x.count++
	x.bytes += seg.size
}

// of returns a copy of the group's entries.
func (x *index) of(id partition.ID) []segment {
	x.mu.Lock()
	defer x.mu.Unlock()
	return slices.Clone(x.segs[id])
}

// drop forgets the group's first n entries (Remove deletes in order).
func (x *index) drop(id partition.ID, n int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if n = min(n, len(x.segs[id])); n == 0 {
		return
	}
	for _, seg := range x.segs[id][:n] {
		x.count--
		x.bytes -= seg.size
	}
	if x.segs[id] = x.segs[id][n:]; len(x.segs[id]) == 0 {
		delete(x.segs, id)
	}
}

// Groups implements Store.
func (x *index) Groups() []partition.ID {
	x.mu.Lock()
	defer x.mu.Unlock()
	ids := make([]partition.ID, 0, len(x.segs))
	for id := range x.segs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// SegmentCount implements Store.
func (x *index) SegmentCount() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.count
}

// Bytes implements Store.
func (x *index) Bytes() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.bytes
}

// BytesOf implements Store.
func (x *index) BytesOf(id partition.ID) int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	var n int64
	for _, seg := range x.segs[id] {
		n += seg.size
	}
	return n
}

// MemStore is an in-memory Store for tests and for experiments where disk
// latency is irrelevant. It holds each segment's encoding, as a file
// store's file would.
type MemStore struct{ index }

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Write implements Store.
func (s *MemStore) Write(snap *join.GroupSnapshot) error {
	buf := join.EncodeSnapshot(snap)
	s.put(snap.ID, segment{gen: snap.Gen, size: int64(len(buf)), buf: buf})
	return nil
}

// Read implements Store.
func (s *MemStore) Read(id partition.ID) ([]*join.GroupSnapshot, error) {
	return decodeAll(id, s.of(id), func(seg segment) ([]byte, error) { return seg.buf, nil })
}

// Last implements Store.
func (s *MemStore) Last(id partition.ID) (*join.GroupSnapshot, error) {
	if segs := s.of(id); len(segs) > 0 {
		return join.DecodeSnapshotHeader(segs[len(segs)-1].buf)
	}
	return nil, nil
}

// Remove implements Store.
func (s *MemStore) Remove(id partition.ID) ([]*join.GroupSnapshot, error) {
	out, err := s.Read(id)
	s.drop(id, len(out))
	return out, err
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore persists each segment as one checksummed file under a
// directory, named g<ID>-<gen>.seg.
type FileStore struct {
	dir string
	// remove deletes one segment file (os.Remove; tests inject failures).
	remove func(string) error
	index
}

// NewFileStore creates (if needed) dir and returns a file-backed store.
// An existing directory is scanned so a store can be reopened: only
// published segments are indexed, and temp files a crash left between
// write and rename are swept.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: create store dir: %w", err)
	}
	s := &FileStore{dir: dir, remove: os.Remove}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("spill: scan store dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg.tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("spill: sweep torn segment: %w", err)
			}
			continue
		}
		var id partition.ID
		var gen uint32
		// Sscanf ignores trailing input, so insist on the exact name.
		if _, err := fmt.Sscanf(e.Name(), "g%d-%d.seg", &id, &gen); err != nil || e.Name() != segName(id, gen) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("spill: stat segment: %w", err)
		}
		s.put(id, segment{gen: gen, size: info.Size()})
	}
	return s, nil
}

func segName(id partition.ID, gen uint32) string { return fmt.Sprintf("g%d-%d.seg", id, gen) }

func (s *FileStore) segPath(id partition.ID, gen uint32) string {
	return filepath.Join(s.dir, segName(id, gen))
}

// Write implements Store.
func (s *FileStore) Write(snap *join.GroupSnapshot) error {
	buf := join.EncodeSnapshot(snap)
	path := s.segPath(snap.ID, snap.Gen)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("spill: write segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("spill: publish segment: %w", err)
	}
	s.put(snap.ID, segment{gen: snap.Gen, size: int64(len(buf))})
	return nil
}

// Read implements Store.
func (s *FileStore) Read(id partition.ID) ([]*join.GroupSnapshot, error) {
	return decodeAll(id, s.of(id), func(seg segment) ([]byte, error) {
		buf, err := os.ReadFile(s.segPath(id, seg.gen))
		if err != nil {
			return nil, fmt.Errorf("spill: read segment: %w", err)
		}
		return buf, nil
	})
}

// decodeAll decodes group id's segments from the bytes load fetches for
// each; every snapshot aliases what load returned.
func decodeAll(id partition.ID, segs []segment, load func(segment) ([]byte, error)) ([]*join.GroupSnapshot, error) {
	out := make([]*join.GroupSnapshot, 0, len(segs))
	for _, seg := range segs {
		buf, err := load(seg)
		if err != nil {
			return nil, err
		}
		snap, err := join.DecodeSnapshot(buf)
		if err != nil {
			return nil, fmt.Errorf("spill: decode segment g%d-%d: %w", id, seg.gen, err)
		}
		out = append(out, snap)
	}
	return out, nil
}

// Last implements Store.
func (s *FileStore) Last(id partition.ID) (*join.GroupSnapshot, error) {
	segs := s.of(id)
	if len(segs) == 0 {
		return nil, nil
	}
	f, err := os.Open(s.segPath(id, segs[len(segs)-1].gen))
	if err != nil {
		return nil, fmt.Errorf("spill: read segment header: %w", err)
	}
	defer f.Close()
	buf := make([]byte, join.SnapshotHeaderSize)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("spill: read segment header: %w", err)
	}
	return join.DecodeSnapshotHeader(buf)
}

// Remove implements Store. The index forgets exactly the files that
// were deleted, so a failure part-way leaves it describing what is
// still on disk.
func (s *FileStore) Remove(id partition.ID) ([]*join.GroupSnapshot, error) {
	out, err := s.Read(id)
	if err != nil {
		return nil, err
	}
	for i, snap := range out {
		if err := s.remove(s.segPath(id, snap.Gen)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.drop(id, i)
			return out[:i], fmt.Errorf("spill: remove segment: %w", err)
		}
	}
	s.drop(id, len(out))
	return out, nil
}

// Close implements Store. Segments remain on disk for a later reopen.
func (s *FileStore) Close() error { return nil }
