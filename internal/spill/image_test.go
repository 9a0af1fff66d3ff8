package spill_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cleanup"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// failNth is a Store whose n-th Write fails (once).
type failNth struct {
	spill.Store
	n, writes int
}

var errInjected = errors.New("injected write failure")

func (s *failNth) Write(snap *join.GroupSnapshot) error {
	if s.writes++; s.writes == s.n {
		return errInjected
	}
	return s.Store.Write(snap)
}

// TestImageMovesAGroupExactly is the property every mover of group
// state rests on (relocation, replication seed, promotion): a group with
// spilled generations and a live memory tier, taken out of one
// (operator, store), encoded, decoded and installed into another, is
// the same group — byte-identical memory tier and segment list, the
// source left empty, cleanup over the destination completing the
// oracle's result set — and installing is idempotent: twice is once,
// and an install that failed at any segment write, retried with the same
// image or with a fresh decode of the same bytes (a re-shipped
// transfer), is once too.
func TestImageMovesAGroupExactly(t *testing.T) {
	stores := map[string]func(t *testing.T) spill.Store{
		"mem": func(*testing.T) spill.Store { return spill.NewMemStore() },
		"file": func(t *testing.T) spill.Store {
			fs, err := spill.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
	for _, window := range []time.Duration{0, 150 * time.Millisecond} {
		for name, newStore := range stores {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("window=%s/%s/seed=%d", window, name, seed), func(t *testing.T) {
					imageProperty(t, window, newStore, seed)
				})
			}
		}
	}
}

func imageProperty(t *testing.T, window time.Duration, newStore func(*testing.T) spill.Store, seed int64) {
	const (
		inputs     = 3
		partitions = 4
		id         = partition.ID(1)
		steps      = 600
	)
	rng := rand.New(rand.NewSource(seed))
	pf := partition.NewFunc(partitions)
	got := tuple.NewResultSet() // run-time results of the source, then cleanup over the destination
	emit := func(r tuple.Result) {
		if !got.Add(r) {
			t.Errorf("duplicate result %v", r)
		}
	}
	src := join.NewWindowed(inputs, pf, window, emit)
	srcStore := newStore(t)

	// One group, several keys, a handful of spills, tuples after the last.
	var history []tuple.Tuple
	now := vclock.Time(0)
	for step := 0; step < steps; step++ {
		if step%125 == 124 {
			if snap := src.ExtractForSpill(id); snap != nil {
				if err := srcStore.Write(snap); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		now += vclock.Time(time.Millisecond)
		key := uint64(rng.Intn(16))*partitions + uint64(id)
		if pf.Of(key) != id {
			t.Fatalf("key %d is not in group %d", key, id)
		}
		seq := uint64(len(history))
		tp := tuple.Tuple{Stream: uint8(rng.Intn(inputs)), Key: key, Seq: seq, Ts: now, Payload: make([]byte, seq%40)}
		history = append(history, tp)
		if _, err := src.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	wantMem := join.EncodeSnapshot(src.ResidentSnapshot(id))
	segs, err := srcStore.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 || src.MemBytes() == 0 {
		t.Fatalf("source has %d segments and %d resident bytes; the test needs both tiers", len(segs), src.MemBytes())
	}
	wantDisk := make([][]byte, len(segs))
	for i, seg := range segs {
		wantDisk[i] = join.EncodeSnapshot(seg)
	}
	wantMemBytes, wantDiskBytes := src.MemBytes(), srcStore.BytesOf(id)

	im, err := spill.Take(src, srcStore, id)
	if err != nil {
		t.Fatal(err)
	}
	if src.ResidentSnapshot(id) != nil || src.MemBytes() != 0 || srcStore.SegmentCount() != 0 || srcStore.Bytes() != 0 {
		t.Fatalf("Take left the source holding state: %d resident bytes, %d segments", src.MemBytes(), srcStore.SegmentCount())
	}
	if mem, disk := im.Bytes(); mem != wantMemBytes || disk != wantDiskBytes {
		t.Fatalf("Bytes() = %d mem, %d disk; the source accounted %d and %d", mem, disk, wantMemBytes, wantDiskBytes)
	}
	wire := spill.AppendImage(nil, im)

	// check asserts that (dst, store) hold exactly the source's group.
	check := func(when string, dst *join.Operator, store spill.Store) {
		t.Helper()
		snap := dst.ResidentSnapshot(id)
		if snap == nil || !bytes.Equal(join.EncodeSnapshot(snap), wantMem) {
			t.Fatalf("%s: memory tier differs from the source's", when)
		}
		got, err := store.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantDisk) || store.SegmentCount() != len(wantDisk) {
			t.Fatalf("%s: %d segments (store counts %d), want %d", when, len(got), store.SegmentCount(), len(wantDisk))
		}
		for i := range got {
			if !bytes.Equal(join.EncodeSnapshot(got[i]), wantDisk[i]) {
				t.Fatalf("%s: segment %d differs from the source's", when, i)
			}
		}
		if dst.MemBytes() != wantMemBytes || store.BytesOf(id) != wantDiskBytes || store.Bytes() != wantDiskBytes {
			t.Fatalf("%s: destination accounts %d mem, %d disk; want %d, %d", when, dst.MemBytes(), store.Bytes(), wantMemBytes, wantDiskBytes)
		}
	}
	decode := func() *spill.Image {
		t.Helper()
		dec, err := spill.DecodeImage(wire)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	newDst := func() *join.Operator { return join.NewWindowed(inputs, pf, window, nil) }

	// Install, then install again.
	dst, dstStore := newDst(), newStore(t)
	dec := decode()
	if err := dec.Install(dst, dstStore); err != nil {
		t.Fatal(err)
	}
	check("after Install", dst, dstStore)
	if err := dec.Install(dst, dstStore); err != nil || !dec.Empty() {
		t.Fatalf("second Install: err %v, image empty %v", err, dec.Empty())
	}
	check("after Install twice", dst, dstStore)

	// Runtime results of the source plus cleanup over the destination
	// are the oracle's.
	gens, err := dstStore.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cleanup.Group(inputs, append(gens, dst.ResidentSnapshot(id)), window, emit); err != nil {
		t.Fatal(err)
	}
	want := join.Oracle(inputs, history)
	if window > 0 {
		want = join.WindowedOracle(inputs, history, window)
	}
	if missing := want.Diff(got); len(missing) > 0 || got.Len() != want.Len() {
		t.Fatalf("%d results, oracle %d; %d of the oracle's never produced", got.Len(), want.Len(), len(missing))
	}

	// Fail the n-th segment write, for every n; retry with the same
	// image and with a fresh decode.
	for n := 1; n <= len(wantDisk); n++ {
		for _, fresh := range []bool{false, true} {
			dst, failing := newDst(), &failNth{Store: newStore(t), n: n}
			dec := decode()
			if err := dec.Install(dst, failing); !errors.Is(err, errInjected) {
				t.Fatalf("n=%d: Install over a failing store returned %v", n, err)
			}
			if dst.ResidentSnapshot(id) != nil {
				t.Fatalf("n=%d: memory tier merged although the disk tier is incomplete", n)
			}
			if fresh {
				dec = decode()
			}
			if err := dec.Install(dst, failing); err != nil {
				t.Fatalf("n=%d fresh=%v: retry failed: %v", n, fresh, err)
			}
			check(fmt.Sprintf("n=%d fresh=%v: after the retry", n, fresh), dst, failing)
		}
	}
}

// TestDecodeImageRejects covers what DecodeImage adds on top of the
// snapshot checksum: framing, one group per image, ascending segments.
func TestDecodeImageRejects(t *testing.T) {
	seg := func(id partition.ID, gen uint32) *join.GroupSnapshot {
		return &join.GroupSnapshot{ID: id, Gen: gen, Inputs: make([][]byte, 2)}
	}
	good := spill.AppendImage(nil, &spill.Image{Mem: seg(1, 2), Disk: []*join.GroupSnapshot{seg(1, 0), seg(1, 1)}})
	if _, err := spill.DecodeImage(good); err != nil {
		t.Fatal(err)
	}
	if im, err := spill.DecodeImage(spill.AppendImage(nil, &spill.Image{})); err != nil || !im.Empty() {
		t.Fatalf("empty image: %+v, %v", im, err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0xff
	for name, buf := range map[string][]byte{
		"empty":            nil,
		"truncated":        good[:len(good)-1],
		"trailing byte":    append(bytes.Clone(good), 0),
		"corrupt blob":     flipped,
		"two groups":       spill.AppendImage(nil, &spill.Image{Mem: seg(1, 1), Disk: []*join.GroupSnapshot{seg(2, 0)}}),
		"repeated segment": spill.AppendImage(nil, &spill.Image{Mem: seg(1, 2), Disk: []*join.GroupSnapshot{seg(1, 0), seg(1, 0)}}),
	} {
		if _, err := spill.DecodeImage(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
