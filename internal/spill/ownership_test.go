package spill_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// kinds are the three operator layouts a group's state can take: a
// count-only join logs its tuples, an emitting or windowed one keeps
// key-major runs (the windowed one timestamp-sorted).
var kinds = map[string]func(inputs int, pf partition.Func) *join.Operator{
	"count-only": func(inputs int, pf partition.Func) *join.Operator { return join.New(inputs, pf, nil) },
	"emitting": func(inputs int, pf partition.Func) *join.Operator {
		return join.New(inputs, pf, func(tuple.Result) {})
	},
	"windowed": func(inputs int, pf partition.Func) *join.Operator {
		return join.NewWindowed(inputs, pf, time.Hour, nil)
	},
}

// filled returns an operator of kind mk holding n tuples of varied
// payloads over groups partitions.
func filled(t *testing.T, mk func(int, partition.Func) *join.Operator, groups, n int) *join.Operator {
	t.Helper()
	op := mk(3, partition.NewFunc(groups))
	for i := 0; i < n; i++ {
		tp := tuple.Tuple{Stream: uint8(i % 3), Key: uint64(i * 7 % 97), Seq: uint64(i),
			Ts: vclock.Time(i), Payload: bytes.Repeat([]byte{byte(i)}, i%13)}
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	return op
}

// held counts every tuple the snapshots hold by identity.
func held(into map[tuple.ID]int, snaps ...*join.GroupSnapshot) {
	var tp tuple.Tuple
	for _, s := range snaps {
		for i := range s.Inputs {
			for r := s.Input(i); r.Next(&tp); {
				into[tuple.IDOf(&tp)]++
			}
		}
	}
}

// resident snapshots every group op holds.
func resident(op *join.Operator) []*join.GroupSnapshot {
	var out []*join.GroupSnapshot
	for _, id := range op.ResidentIDs() {
		out = append(out, op.ResidentSnapshot(id))
	}
	return out
}

// TestFailedSpillWriteKeepsTheGroup: a spill of k groups whose n-th
// store write fails, for every n, persists the n-1 groups before it and
// reports exactly those, and the group it could not write stays
// resident: resident and stored tuples together are what was resident
// before, each once, and the operator's bytes plus the stored segments'
// account for all of them. The spill after it, with the store healthy
// again, persists the rest.
func TestFailedSpillWriteKeepsTheGroup(t *testing.T) {
	const groups = 6
	for name, mk := range kinds {
		for n := 1; n <= groups; n++ {
			t.Run(fmt.Sprintf("%s/fail=%d", name, n), func(t *testing.T) {
				op := filled(t, mk, groups, 600)
				want := map[tuple.ID]int{}
				held(want, resident(op)...)
				wantBytes := op.MemBytes()
				store := &failNth{Store: spill.NewMemStore(), n: n}
				m := spill.NewManager(op, store, core.LargestPolicy{})

				res, err := m.Spill(wantBytes)
				if err == nil {
					t.Fatal("a spill whose write failed reported no error")
				}
				if len(res.Groups) != n-1 || !slicesEqual(res.Groups, store.Groups()) {
					t.Fatalf("spill reports groups %v persisted; the store holds %v, want %d", res.Groups, store.Groups(), n-1)
				}
				got := map[tuple.ID]int{}
				held(got, resident(op)...)
				var stored int64
				storedTuples := 0
				for _, id := range store.Groups() {
					segs, err := store.Read(id)
					if err != nil {
						t.Fatal(err)
					}
					held(got, segs...)
					for _, seg := range segs {
						stored += seg.MemBytes()
						storedTuples += seg.TupleCount()
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%d distinct tuples resident or stored, %d were resident", len(got), len(want))
				}
				for id, c := range got {
					if c != 1 || want[id] != 1 {
						t.Fatalf("tuple %v held %d times, was resident %d times", id, c, want[id])
					}
				}
				if op.MemBytes()+stored != wantBytes || res.Bytes != stored || res.Tuples != storedTuples {
					t.Fatalf("resident %d + stored %d bytes, %d before; spill reports %d bytes and %d tuples, the store %d",
						op.MemBytes(), stored, wantBytes, res.Bytes, res.Tuples, storedTuples)
				}

				if _, err := m.Spill(op.MemBytes()); err != nil {
					t.Fatal(err)
				}
				if op.MemBytes() != 0 || len(store.Groups()) != groups {
					t.Fatalf("the retried spill left %d bytes resident and %d groups stored", op.MemBytes(), len(store.Groups()))
				}
			})
		}
	}
}

// TestFailedSpillKeepsThePurgeWatermark: a windowed group whose spill
// write failed keeps the generation and purge watermark it had. Its
// tuples never left memory, so nothing on disk can owe them a match, and
// once expired they purge: a watermark raised over them would hold every
// one back until the group's next successful spill.
func TestFailedSpillKeepsThePurgeWatermark(t *testing.T) {
	const n = 10
	op := join.NewWindowed(2, partition.NewFunc(1), time.Second, nil)
	for i := 0; i < n; i++ {
		tp := tuple.Tuple{Stream: uint8(i % 2), Key: uint64(i), Seq: uint64(i), Ts: vclock.Time(time.Duration(i) * time.Second)}
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	m := spill.NewManager(op, &failNth{Store: spill.NewMemStore(), n: 1}, core.LargestPolicy{})
	if _, err := m.Spill(op.MemBytes()); !errors.Is(err, errInjected) {
		t.Fatalf("a spill over a failing store returned %v", err)
	}
	if s := op.ResidentSnapshot(0); s.Gen != 0 || s.EverSpilled || s.TupleCount() != n {
		t.Errorf("after the failed spill the group is at generation %d, ever spilled %v, holding %d tuples; want 0, false, %d",
			s.Gen, s.EverSpilled, s.TupleCount(), n)
	}
	now := vclock.Time(20 * time.Second)
	if got := op.Purge(now.Add(-op.Window())); got != n {
		t.Fatalf("a purge at 20 s dropped %d of %d expired tuples", got, n)
	}
}

func slicesEqual(a, b []partition.ID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[partition.ID]bool{}
	for _, id := range a {
		seen[id] = true
	}
	for _, id := range b {
		if !seen[id] {
			return false
		}
	}
	return true
}

// TestSpillRoundTripIsExact: a group extracted, written, read back and
// merged into a fresh operator snapshots to the bytes extracted, for
// each layout and through both stores.
func TestSpillRoundTripIsExact(t *testing.T) {
	const groups = 3
	for name, mk := range kinds {
		for _, storeName := range []string{"mem", "file"} {
			t.Run(name+"/"+storeName, func(t *testing.T) {
				var store spill.Store = spill.NewMemStore()
				if storeName == "file" {
					fs, err := spill.NewFileStore(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					store = fs
				}
				op := filled(t, mk, groups, 450)
				for id := partition.ID(0); id < groups; id++ {
					snap := op.ExtractForSpill(id)
					want := join.EncodeSnapshot(snap)
					if err := store.Write(snap); err != nil {
						t.Fatal(err)
					}
					segs, err := store.Read(id)
					if err != nil {
						t.Fatal(err)
					}
					if len(segs) != 1 || !bytes.Equal(join.EncodeSnapshot(segs[0]), want) {
						t.Fatalf("group %d: the store read back %d segments, not the one written", id, len(segs))
					}
					dst := mk(3, partition.NewFunc(groups))
					if err := dst.Merge(segs[0]); err != nil {
						t.Fatal(err)
					}
					if got := join.EncodeSnapshot(dst.ResidentSnapshot(id)); !bytes.Equal(got, want) {
						t.Fatalf("group %d: merged back, it snapshots to other bytes than were extracted", id)
					}
				}
			})
		}
	}
}

// TestMemStoreKeepsItsOwnCopy: a snapshot's inputs are the caller's
// once Write returns; overwriting them leaves the stored segment as it
// was written.
func TestMemStoreKeepsItsOwnCopy(t *testing.T) {
	op := filled(t, kinds["count-only"], 1, 300)
	snap := op.ExtractForSpill(0)
	want := join.EncodeSnapshot(snap)
	store := spill.NewMemStore()
	if err := store.Write(snap); err != nil {
		t.Fatal(err)
	}
	for _, in := range snap.Inputs {
		for i := range in {
			in[i] = 0xAA
		}
	}
	segs, err := store.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || !bytes.Equal(join.EncodeSnapshot(segs[0]), want) {
		t.Fatal("overwriting a written snapshot's inputs changed the stored segment")
	}
}

// TestDecodeImageOwnsItsBytes: the buffer handed to DecodeImage is a
// frame's, recycled once the handler returns; overwriting it after the
// call leaves the image, and what it installs, as the source was.
func TestDecodeImageOwnsItsBytes(t *testing.T) {
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			src, srcStore := filled(t, mk, 2, 400), spill.NewMemStore()
			seg := src.ExtractForSpill(1)
			if err := srcStore.Write(seg); err != nil {
				t.Fatal(err)
			}
			wantDisk := join.EncodeSnapshot(seg)
			for i := 0; i < 90; i++ {
				tp := tuple.Tuple{Stream: uint8(i % 3), Key: uint64(2*i + 1), Seq: uint64(1000 + i), Ts: vclock.Time(1000 + i), Payload: []byte{byte(i)}}
				if _, err := src.Process(tp); err != nil {
					t.Fatal(err)
				}
			}
			wantMem := join.EncodeSnapshot(src.ResidentSnapshot(1))
			im, err := spill.Take(src, srcStore, 1)
			if err != nil {
				t.Fatal(err)
			}
			frame := spill.AppendImage(nil, im)
			got, err := spill.DecodeImage(frame)
			if err != nil {
				t.Fatal(err)
			}
			for i := range frame {
				frame[i] = 0xAA
			}
			dst, dstStore := mk(3, partition.NewFunc(2)), spill.NewMemStore()
			if err := got.Install(dst, dstStore); err != nil {
				t.Fatal(err)
			}
			segs, err := dstStore.Read(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) != 1 || !bytes.Equal(join.EncodeSnapshot(segs[0]), wantDisk) {
				t.Fatal("the installed segment differs from the source's")
			}
			if !bytes.Equal(join.EncodeSnapshot(dst.ResidentSnapshot(1)), wantMem) {
				t.Fatal("the installed memory tier differs from the source's")
			}
		})
	}
}
