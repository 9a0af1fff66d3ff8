package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// eagerFollower is the follower side as it was before standbys kept
// their tiers encoded: every seed and append is decoded into owned
// tuples on arrival and appended to its group's one decoded tier, and
// promotion is one Merge of that tier's snapshot.
// TestStandbyMatchesEagerFollower holds the engine to it byte for byte.
type eagerFollower struct {
	inputs         int
	op             *join.Operator
	store, sbStore spill.Store
	standby        map[partition.ID]*eagerTier
	promoted       map[partition.ID]bool
	applied        uint64
}

// eagerTier is a standby memory tier held decoded: a snapshot's header
// fields and each input's owned tuples.
type eagerTier struct {
	hdr    join.GroupSnapshot // Inputs unused
	tuples [][]tuple.Tuple
}

// newTier returns the empty tier of group g at generation gen.
func newTier(g partition.ID, gen uint32, inputs int) *eagerTier {
	return &eagerTier{hdr: join.GroupSnapshot{ID: g, Gen: gen}, tuples: make([][]tuple.Tuple, inputs)}
}

// tierOf decodes s, reading each input through its reader.
func tierOf(s *join.GroupSnapshot) *eagerTier {
	e := &eagerTier{hdr: *s, tuples: make([][]tuple.Tuple, len(s.Inputs))}
	e.hdr.Inputs = nil
	var tp tuple.Tuple
	for i := range s.Inputs {
		for r := s.Input(i); r.Next(&tp); {
			e.tuples[i] = append(e.tuples[i], tp.Clone())
		}
	}
	return e
}

// snap encodes the tier as the snapshot it stands for, each input as a
// tuple.Batch; nil stays nil.
func (e *eagerTier) snap() *join.GroupSnapshot {
	if e == nil {
		return nil
	}
	s := e.hdr
	s.Inputs = make([][]byte, len(e.tuples))
	for i, l := range e.tuples {
		s.Inputs[i] = (&tuple.Batch{Tuples: l}).Encode()
	}
	return &s
}

func (f *eagerFollower) apply(t *testing.T, d proto.StateDelta) {
	t.Helper()
	if d.Seq != f.applied+1 {
		return // a duplicate or a gap: answered, not applied
	}
	for _, ent := range d.Entries {
		g := ent.Group
		switch ent.Kind {
		case proto.DeltaSeed:
			im, err := spill.DecodeImage(ent.Payload)
			if err != nil {
				t.Fatal(err)
			}
			delete(f.promoted, g)
			if _, err := f.sbStore.Remove(g); err != nil {
				t.Fatal(err)
			}
			delete(f.standby, g)
			if im.Mem != nil {
				f.standby[g] = tierOf(im.Mem)
			}
			if err := im.WriteDisk(f.sbStore); err != nil {
				t.Fatal(err)
			}
		case proto.DeltaSpillMark:
			if f.promoted[g] {
				continue
			}
			sb := f.standby[g]
			if sb == nil {
				sb = newTier(g, 0, f.inputs)
			}
			seg := sb.snap()
			next := seg.Seal(binary.LittleEndian.Uint32(ent.Payload))
			if err := f.sbStore.Write(seg); err != nil {
				t.Fatal(err)
			}
			f.standby[g] = tierOf(next)
		case proto.DeltaAppend:
			tuples := make([][]tuple.Tuple, f.inputs)
			var size int64
			r, err := tuple.ReadRun(ent.Payload)
			if err != nil {
				t.Fatal(err)
			}
			for tp := (tuple.Tuple{}); r.Next(&tp); {
				tuples[tp.Stream] = append(tuples[tp.Stream], tp.Clone())
				size += tp.MemSize()
			}
			if f.promoted[g] {
				if err := f.op.Merge((&eagerTier{hdr: join.GroupSnapshot{ID: g}, tuples: tuples}).snap()); err != nil {
					t.Fatal(err)
				}
				continue
			}
			sb := f.standby[g]
			if sb == nil {
				sb = newTier(g, 0, f.inputs)
				f.standby[g] = sb
			}
			for i, l := range tuples {
				sb.tuples[i] = append(sb.tuples[i], l...)
			}
			sb.hdr.CumBytes += size
		}
	}
	f.applied = d.Seq
}

func (f *eagerFollower) promote(t *testing.T, groups []partition.ID) {
	t.Helper()
	for _, g := range groups {
		f.promoted[g] = true
		disk, err := f.sbStore.Read(g)
		if err != nil {
			t.Fatal(err)
		}
		im := spill.Image{Mem: f.standby[g].snap(), Disk: disk}
		if err := im.Install(f.op, f.store); err != nil {
			t.Fatal(err)
		}
		delete(f.standby, g)
		if _, err := f.sbStore.Remove(g); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStandbyMatchesEagerFollower drives a follower engine and the eager
// reference through the same seeded mix of seeds, appends, spill
// markers, multi-entry deltas, duplicates, gaps, promotions and appends
// to promoted groups. After every step each group's standby memory tier
// (its encoded appends folded into it), standby segments, resident
// state and adopted segments must encode to the reference's bytes, and
// the standby byte counter must equal the reference's tiers.
func TestStandbyMatchesEagerFollower(t *testing.T) {
	for _, window := range []time.Duration{0, 40 * time.Millisecond} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("window=%s/seed=%d", window, seed), func(t *testing.T) {
				standbyDifferential(t, window, seed)
			})
		}
	}
}

func standbyDifferential(t *testing.T, window time.Duration, seed int64) {
	const inputs, partitions, steps = 2, 4, 300
	sbStore := spill.NewMemStore()
	d := newDesk(t, func(c *Config) { c.StandbyStore, c.Window = sbStore, window })
	pf := partition.NewFunc(partitions)
	ref := &eagerFollower{
		inputs: inputs, op: join.NewWindowed(inputs, pf, window, nil),
		store: spill.NewMemStore(), sbStore: spill.NewMemStore(),
		standby: map[partition.ID]*eagerTier{}, promoted: map[partition.ID]bool{},
	}
	if window == 0 {
		ref.op = join.New(inputs, pf, nil)
	}
	rng := rand.New(rand.NewSource(seed))
	var next uint64
	tuples := func(g partition.ID, n int) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			next++
			out[i] = tuple.Tuple{Stream: uint8(rng.Intn(inputs)), Key: uint64(g) + partitions*uint64(rng.Intn(5)),
				Seq: next, Ts: vclock.Time(rng.Intn(200)) * vclock.Time(time.Millisecond),
				Payload: bytes.Repeat([]byte{byte(next)}, rng.Intn(20))}
		}
		return out
	}
	group := func(g partition.ID, gen uint32) *join.GroupSnapshot {
		s := newTier(g, gen, inputs)
		s.hdr.CumBytes = int64(rng.Intn(5000))
		for _, tp := range tuples(g, rng.Intn(10)) {
			s.tuples[tp.Stream] = append(s.tuples[tp.Stream], tp)
		}
		return s.snap()
	}
	entry := func() proto.DeltaEntry {
		g := partition.ID(rng.Intn(partitions))
		switch k := rng.Intn(10); {
		case k < 6:
			return proto.DeltaEntry{Group: g, Kind: proto.DeltaAppend, Payload: appendPayload(tuples(g, 1+rng.Intn(12))...)}
		case k < 8:
			segs := make([]*join.GroupSnapshot, rng.Intn(3))
			for i := range segs {
				segs[i] = group(g, uint32(i))
			}
			return proto.DeltaEntry{Group: g, Kind: proto.DeltaSeed, Payload: seedPayload(group(g, uint32(len(segs))), segs...)}
		default:
			gen := uint32(0)
			if sb := ref.standby[g]; sb != nil {
				gen = sb.hdr.Gen
			}
			return proto.DeltaEntry{Group: g, Kind: proto.DeltaSpillMark, Payload: markPayload(gen)}
		}
	}
	encode := func(s *join.GroupSnapshot) []byte {
		if s == nil {
			return nil
		}
		return join.EncodeSnapshot(s)
	}
	sameSegments := func(step int, what string, g partition.ID, got, want spill.Store) {
		t.Helper()
		a, err := got.Read(g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := want.Read(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("step %d: group %d has %d %s, the reference %d", step, g, len(a), what, len(b))
		}
		for i := range a {
			if !bytes.Equal(encode(a[i]), encode(b[i])) {
				t.Fatalf("step %d: %s %d of group %d differs from the reference", step, what, i, g)
			}
		}
	}
	check := func(step int) {
		t.Helper()
		var wantBytes int64
		for g := partition.ID(0); g < partitions; g++ {
			var got []byte
			if sb := d.e.repl.standby[g]; sb != nil {
				got = encode(sb.Image())
			}
			want := ref.standby[g].snap()
			if !bytes.Equal(got, encode(want)) {
				t.Fatalf("step %d: standby memory tier of group %d differs from the reference", step, g)
			}
			if want != nil {
				wantBytes += want.MemBytes()
			}
			if !bytes.Equal(encode(d.e.Op().ResidentSnapshot(g)), encode(ref.op.ResidentSnapshot(g))) {
				t.Fatalf("step %d: resident state of group %d differs from the reference", step, g)
			}
			sameSegments(step, "standby segments", g, sbStore, ref.sbStore)
			sameSegments(step, "segments", g, d.e.cfg.Store, ref.store)
		}
		if got := d.e.repl.standbyBytes; got != wantBytes {
			t.Fatalf("step %d: standbyBytes = %d, the reference's tiers hold %d", step, got, wantBytes)
		}
	}

	var (
		seq, epoch uint64
		sent       []proto.StateDelta
	)
	deliver := func(dl proto.StateDelta) {
		t.Helper()
		acks := sentOf[proto.DeltaAck](d.handle("m2", dl))
		ref.apply(t, dl)
		if len(acks) != 1 || acks[0].Seq != ref.applied {
			t.Fatalf("delta %d answered with %+v, want an ack of %d", dl.Seq, acks, ref.applied)
		}
	}
	for step := 0; step < steps; step++ {
		switch k := rng.Intn(10); {
		case k < 7:
			dl := proto.StateDelta{From: "m2", Incarnation: 1, Seq: seq + 1}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				dl.Entries = append(dl.Entries, entry())
			}
			deliver(dl)
			seq++
			sent = append(sent, dl)
		case k < 8:
			if len(sent) > 0 {
				deliver(sent[rng.Intn(len(sent))])
			}
		case k < 9:
			deliver(proto.StateDelta{From: "m2", Incarnation: 1, Seq: seq + 2, Entries: []proto.DeltaEntry{entry()}})
		default:
			var groups []partition.ID
			for g := partition.ID(0); g < partitions; g++ {
				if rng.Intn(2) == 0 {
					groups = append(groups, g)
				}
			}
			epoch++
			acks := sentOf[proto.PromoteAck](d.handle("gc", proto.Promote{Epoch: epoch, From: "m2", Groups: groups}))
			if len(acks) != 1 || !acks[0].Installed {
				t.Fatalf("step %d: promotion of %v answered with %+v", step, groups, acks)
			}
			ref.promote(t, groups)
		}
		check(step)
	}
}
