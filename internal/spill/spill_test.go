package spill

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

func mkSnap(id partition.ID, gen uint32, n int) *join.GroupSnapshot {
	var run []byte
	for i := 0; i < n; i++ {
		t := tuple.Tuple{Stream: uint8(i % 2), Key: uint64(id), Seq: uint64(i), Payload: []byte{byte(i)}}
		run = t.AppendTo(run)
	}
	s := &join.GroupSnapshot{ID: id, Gen: gen, Output: uint64(gen) * 10, Inputs: make([][]byte, 2)}
	if err := s.Append(run); err != nil {
		panic(err)
	}
	return s
}

func testStores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMemStore(), "file": fs}
}

func TestStoreWriteRead(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			want := mkSnap(3, 1, 5)
			if err := s.Write(want); err != nil {
				t.Fatal(err)
			}
			segs, err := s.Read(3)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) != 1 {
				t.Fatalf("read %d segments", len(segs))
			}
			if !reflect.DeepEqual(segs[0], want) {
				t.Fatalf("round trip mismatch:\n%+v\n%+v", segs[0], want)
			}
			if s.SegmentCount() != 1 || s.Bytes() <= 0 {
				t.Fatalf("count=%d bytes=%d", s.SegmentCount(), s.Bytes())
			}
		})
	}
}

func TestStoreGenerationOrder(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			// Write out of order; Read must return generation order.
			for _, gen := range []uint32{2, 0, 1} {
				if err := s.Write(mkSnap(7, gen, 2)); err != nil {
					t.Fatal(err)
				}
			}
			segs, err := s.Read(7)
			if err != nil {
				t.Fatal(err)
			}
			for i, seg := range segs {
				if seg.Gen != uint32(i) {
					t.Fatalf("segment %d has gen %d", i, seg.Gen)
				}
			}
		})
	}
}

// Last is the header of the highest generation, without tuples: sealing it
// gives the same next memory tier a full read of the group does.
func TestStoreLast(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			if h, err := s.Last(7); h != nil || err != nil {
				t.Fatalf("Last of an unknown group = %+v, %v", h, err)
			}
			for _, gen := range []uint32{2, 0, 1} {
				snap := mkSnap(7, gen, 3)
				snap.Seal(gen) // stored segments are sealed: watermark set
				snap.SpilledTs += vclock.Time(gen)
				if err := s.Write(snap); err != nil {
					t.Fatal(err)
				}
			}
			h, err := s.Last(7)
			if err != nil {
				t.Fatal(err)
			}
			im, err := Copy(join.New(2, partition.NewFunc(8), nil), s, 7)
			if err != nil {
				t.Fatal(err)
			}
			if want := im.Disk[2]; h.Gen != 2 || h.Output != want.Output || h.SpilledTs != want.SpilledTs ||
				len(h.Inputs) != 2 || h.Inputs[0] != nil || h.Inputs[1] != nil {
				t.Fatalf("Last = %+v, want the header of %+v", h, want)
			}
			if next := h.Seal(h.Gen); !reflect.DeepEqual(next, im.Mem) {
				t.Fatalf("sealing the header gives %+v, a full read %+v", next, im.Mem)
			}
		})
	}
}

func TestStoreRemove(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			s.Write(mkSnap(1, 0, 2))
			s.Write(mkSnap(1, 1, 2))
			s.Write(mkSnap(2, 0, 2))
			out, err := s.Remove(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 2 {
				t.Fatalf("removed %d segments", len(out))
			}
			if got := s.Groups(); len(got) != 1 || got[0] != 2 {
				t.Fatalf("Groups = %v", got)
			}
			if s.SegmentCount() != 1 {
				t.Fatalf("SegmentCount = %d", s.SegmentCount())
			}
			if segs, _ := s.Read(1); len(segs) != 0 {
				t.Fatalf("removed group still readable: %d segments", len(segs))
			}
		})
	}
}

func TestStoreGroupsSorted(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			for _, id := range []partition.ID{9, 1, 5} {
				s.Write(mkSnap(id, 0, 1))
			}
			got := s.Groups()
			want := []partition.ID{1, 5, 9}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Groups = %v, want %v", got, want)
			}
		})
	}
}

func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := mkSnap(4, 2, 3)
	if err := s1.Write(want); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.SegmentCount() != 1 {
		t.Fatalf("reopened count = %d", s2.SegmentCount())
	}
	segs, err := s2.Read(4)
	if err != nil || len(segs) != 1 {
		t.Fatalf("reopened read: %v, %d segments", err, len(segs))
	}
	if !reflect.DeepEqual(segs[0], want) {
		t.Fatal("reopened segment differs")
	}
}

func TestFileStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Write(mkSnap(1, 0, 3))
	entries, _ := os.ReadDir(dir)
	path := dir + "/" + entries[0].Name()
	buf, _ := os.ReadFile(path)
	buf[len(buf)/2] ^= 0xff
	os.WriteFile(path, buf, 0o644)
	if _, err := s.Read(1); err == nil {
		t.Fatal("corrupted segment read without error")
	}
}

func TestSnapshotCodecRejectsGarbage(t *testing.T) {
	if _, err := join.DecodeSnapshot([]byte("nope")); err == nil {
		t.Fatal("short garbage accepted")
	}
	buf := join.EncodeSnapshot(mkSnap(1, 0, 2))
	buf[0] ^= 0xff
	if _, err := join.DecodeSnapshot(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func buildOperator(t *testing.T) *join.Operator {
	t.Helper()
	op := join.New(2, partition.NewFunc(4), nil)
	for i := 0; i < 40; i++ {
		_, err := op.Process(tuple.Tuple{
			Stream: uint8(i % 2), Key: uint64(i % 8), Seq: uint64(i), Payload: make([]byte, 16),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return op
}

func TestManagerSpillReducesMemory(t *testing.T) {
	op := buildOperator(t)
	m := NewManager(op, NewMemStore(), core.LessProductivePolicy{})
	before := op.MemBytes()
	target := before / 2
	res, err := m.Spill(target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes < target {
		t.Fatalf("spilled %d bytes, target %d", res.Bytes, target)
	}
	if op.MemBytes() != before-res.Bytes {
		t.Fatalf("MemBytes = %d, want %d", op.MemBytes(), before-res.Bytes)
	}
}

func TestManagerSpillEverything(t *testing.T) {
	op := buildOperator(t)
	m := NewManager(op, NewMemStore(), core.LargestPolicy{})
	if _, err := m.Spill(1 << 40); err != nil {
		t.Fatal(err)
	}
	if op.MemBytes() != 0 {
		t.Fatalf("MemBytes = %d after full spill", op.MemBytes())
	}
}

func TestManagerSpillZeroAmountNoop(t *testing.T) {
	op := buildOperator(t)
	store := NewMemStore()
	m := NewManager(op, store, core.LessProductivePolicy{})
	res, err := m.Spill(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 0 || len(res.Groups) != 0 {
		t.Fatalf("zero-amount spill pushed %d bytes", res.Bytes)
	}
	if n := len(store.Groups()); n != 0 {
		t.Fatalf("zero-amount spill stored %d groups", n)
	}
}

func TestManagerSegmentsReadableAfterSpill(t *testing.T) {
	op := buildOperator(t)
	store := NewMemStore()
	m := NewManager(op, store, core.LessProductivePolicy{})
	res, err := m.Spill(op.MemBytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, id := range store.Groups() {
		segs, err := store.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			total += seg.TupleCount()
		}
	}
	if total != res.Tuples {
		t.Fatalf("store holds %d tuples, spill reported %d", total, res.Tuples)
	}
}

// TestStoreWriteReplacesGeneration: writing a (group, generation) the
// store already holds replaces it — one segment, one segment's bytes —
// which is what lets a retried Image.Install converge.
func TestStoreWriteReplacesGeneration(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Write(mkSnap(1, 0, 2)); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(mkSnap(1, 1, 2)); err != nil {
				t.Fatal(err)
			}
			want := mkSnap(1, 0, 7)
			if err := s.Write(want); err != nil {
				t.Fatal(err)
			}
			segs, err := s.Read(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) != 2 || s.SegmentCount() != 2 || !reflect.DeepEqual(segs[0], want) || segs[1].Gen != 1 {
				t.Fatalf("after rewriting generation 0: %d segments read, %d counted, first = %+v", len(segs), s.SegmentCount(), segs[0])
			}
			size := int64(want.EncodedSize() + segs[1].EncodedSize())
			if s.Bytes() != size || s.BytesOf(1) != size {
				t.Fatalf("Bytes = %d, BytesOf = %d, want %d (the replaced segment must not be counted)", s.Bytes(), s.BytesOf(1), size)
			}
		})
	}
}

// TestFileStoreReopenSkipsTornWrite: a crash between writing a
// segment's temp file and renaming it leaves g<id>-<gen>.seg.tmp
// behind. Reopening must not index it (Sscanf alone parses that name
// as a segment, and the phantom's Read failure then takes the whole
// group's cleanup and removal down with it) and sweeps it.
func TestFileStoreReopenSkipsTornWrite(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Write(mkSnap(1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	torn := dir + "/g1-2.seg.tmp"
	if err := os.WriteFile(torn, []byte("half a segm"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.SegmentCount() != 1 || s2.Bytes() != s1.Bytes() {
		t.Fatalf("reopened store indexes %d segments (%d bytes), want the 1 published (%d bytes)", s2.SegmentCount(), s2.Bytes(), s1.Bytes())
	}
	if segs, err := s2.Remove(1); err != nil || len(segs) != 1 {
		t.Fatalf("Remove after reopen: %d segments, err %v", len(segs), err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn temp file survived the reopen (stat err %v)", err)
	}
}

// TestFileStoreRemoveFailureKeepsIndexAndDiskInStep injects a failure
// at the second file of a three-segment group. The index must forget
// exactly the one segment that was deleted (and return it), keep
// describing the two still on disk — so neither a reopen resurrects
// forgotten segments nor Bytes drifts — and a second Remove finishes.
func TestFileStoreRemoveFailureKeepsIndexAndDiskInStep(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var size [3]int64
	for gen := range size {
		snap := mkSnap(1, uint32(gen), 2+gen)
		if err := s.Write(snap); err != nil {
			t.Fatal(err)
		}
		size[gen] = int64(snap.EncodedSize())
	}
	if err := s.Write(mkSnap(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	other := s.BytesOf(2)

	calls := 0
	s.remove = func(path string) error {
		if calls++; calls == 2 {
			return errors.New("injected remove failure")
		}
		return os.Remove(path)
	}
	removed, err := s.Remove(1)
	if err == nil || len(removed) != 1 || removed[0].Gen != 0 {
		t.Fatalf("failing Remove returned %d segments, err %v; want generation 0 alone and an error", len(removed), err)
	}
	inStep := func(when string, st *FileStore) {
		t.Helper()
		if st.SegmentCount() != 3 || st.BytesOf(1) != size[1]+size[2] || st.Bytes() != size[1]+size[2]+other {
			t.Fatalf("%s: %d segments, group 1 %d bytes, total %d; want 3, %d, %d",
				when, st.SegmentCount(), st.BytesOf(1), st.Bytes(), size[1]+size[2], size[1]+size[2]+other)
		}
		segs, err := st.Read(1)
		if err != nil || len(segs) != 2 || segs[0].Gen != 1 || segs[1].Gen != 2 {
			t.Fatalf("%s: group 1 reads %d segments (err %v), want generations 1 and 2", when, len(segs), err)
		}
	}
	inStep("after the failed Remove", s)
	reopened, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	inStep("reopened", reopened)

	removed, err = s.Remove(1)
	if err != nil || len(removed) != 2 {
		t.Fatalf("second Remove: %d segments, err %v", len(removed), err)
	}
	if s.SegmentCount() != 1 || s.Bytes() != other || s.BytesOf(1) != 0 || len(s.Groups()) != 1 {
		t.Fatalf("after the second Remove: %d segments, %d bytes, groups %v", s.SegmentCount(), s.Bytes(), s.Groups())
	}
}
