package join_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cleanup"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// TestDifferentialAgainstOracle interleaves every state operation the
// engine performs on the operator — Process, spill extraction (through
// the snapshot codec, as a segment would travel), relocation to a second
// operator by Merge of a whole snapshot or of a split one (the second
// half merged, as a promotion does, into the group the first half made
// resident), and, for the windowed join, Purge — under a seeded
// schedule, then cleans up with cleanup.Group. Run-time plus cleanup
// results must equal the oracle's exactly, for 2-, 3- and 4-way joins.
//
// The unbounded join runs a count-only twin through the same schedule.
// Its groups log their records where the emitting operator's keep runs,
// so every snapshot it takes — at each spill and relocation and of
// every group at the end — must encode to the emitting operator's bytes,
// and its Output must stay the emitting operator's.
func TestDifferentialAgainstOracle(t *testing.T) {
	for _, window := range []time.Duration{0, 150 * time.Millisecond} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("window=%s/seed=%d", window, seed), func(t *testing.T) {
				for inputs := 2; inputs <= 4; inputs++ {
					t.Run(fmt.Sprintf("inputs=%d", inputs), func(t *testing.T) {
						differential(t, inputs, window, seed)
					})
				}
			})
		}
	}
}

func differential(t *testing.T, inputs int, window time.Duration, seed int64) {
	const (
		partitions = 8
		steps      = 3000
	)
	rng := rand.New(rand.NewSource(seed))
	pf := partition.NewFunc(partitions)
	got := tuple.NewResultSet()
	emit := func(r tuple.Result) {
		if !got.Add(r) {
			t.Errorf("duplicate result %v", r)
		}
	}
	// Two operators stand for two engines; owner says which one holds
	// each group. twins, when there are any, are the count-only pair.
	ops := [2]*join.Operator{
		join.NewWindowed(inputs, pf, window, emit),
		join.NewWindowed(inputs, pf, window, emit),
	}
	owner := make([]int, partitions)
	var twins []*join.Operator
	if window == 0 {
		twins = []*join.Operator{join.New(inputs, pf, nil), join.New(inputs, pf, nil)}
	}
	// take runs f on the owner of id's group and on its twin, checks the
	// twin's snapshot against the emitting one's and returns both.
	take := func(what string, id partition.ID, f func(*join.Operator, partition.ID) *join.GroupSnapshot) (snap, twin *join.GroupSnapshot) {
		snap = f(ops[owner[id]], id)
		if twins == nil {
			return snap, nil
		}
		twin = f(twins[owner[id]], id)
		sameSnapshot(t, fmt.Sprintf("%s of group %d", what, id), snap, twin)
		for i, op := range ops {
			if got, want := twins[i].Output(), op.Output(); got != want {
				t.Fatalf("after %s of group %d: count-only operator %d has %d results, emitting %d", what, id, i, got, want)
			}
		}
		return snap, twin
	}
	// merge lands a relocated snapshot and its twin's at the new owner.
	merge := func(id partition.ID, snap, twin *join.GroupSnapshot) {
		if err := ops[owner[id]].Merge(snap); err != nil {
			t.Fatal(err)
		}
		if twin != nil {
			if err := twins[owner[id]].Merge(twin); err != nil {
				t.Fatal(err)
			}
		}
	}
	spilled := make([][]*join.GroupSnapshot, partitions)
	var history []tuple.Tuple
	payload := func(seq uint64) []byte {
		p := make([]byte, seq%90)
		for i := range p {
			p[i] = byte(seq) + byte(i)
		}
		return p
	}
	now := vclock.Time(0)
	for step := 0; step < steps; step++ {
		id := partition.ID(rng.Intn(partitions))
		switch r := rng.Intn(1000); {
		case r < 960:
			now += vclock.Time(time.Millisecond)
			ts := now
			if rng.Intn(8) == 0 {
				ts -= vclock.Time(rng.Intn(4)) * vclock.Time(time.Millisecond) // mild disorder
			}
			seq := uint64(len(history))
			tp := tuple.Tuple{
				Stream: uint8(rng.Intn(inputs)), Key: uint64(rng.Intn(64)),
				Seq: seq, Ts: ts, Payload: payload(seq),
			}
			history = append(history, tp)
			at := owner[pf.Of(tp.Key)]
			n, err := ops[at].Process(tp)
			if err != nil {
				t.Fatal(err)
			}
			if twins != nil {
				if c, err := twins[at].Process(tp); err != nil || c != n {
					t.Fatalf("count-only twin: %d results, err %v; emitting operator %d", c, err, n)
				}
			}
		case r < 975:
			snap, _ := take("spill", id, (*join.Operator).ExtractForSpill)
			if snap == nil {
				continue
			}
			decoded, err := join.DecodeSnapshot(join.EncodeSnapshot(snap))
			if err != nil {
				t.Fatal(err)
			}
			spilled[id] = append(spilled[id], decoded)
		case r < 985:
			snap, twin := take("relocation", id, (*join.Operator).RemoveForRelocation)
			if snap == nil {
				continue
			}
			owner[id] = 1 - owner[id]
			merge(id, snap, twin)
		case r < 995:
			// Relocate in two parts: the first half of every input's
			// tuples makes the group resident, the rest is merged on top.
			snap, twin := take("split relocation", id, (*join.Operator).RemoveForRelocation)
			if snap == nil {
				continue
			}
			owner[id] = 1 - owner[id]
			first, rest := halve(snap)
			var twinFirst, twinRest *join.GroupSnapshot
			if twin != nil {
				twinFirst, twinRest = halve(twin)
			}
			merge(id, first, twinFirst)
			merge(id, rest, twinRest)
		default:
			if window > 0 {
				ops[0].Purge(now.Add(-window))
				ops[1].Purge(now.Add(-window))
			}
		}
	}

	var resident int64
	for id := range spilled {
		gens := spilled[id]
		if snap, _ := take("final snapshot", partition.ID(id), (*join.Operator).ResidentSnapshot); snap != nil {
			gens = append(gens, snap)
			resident += snap.MemBytes()
			for stream, l := range join.TuplesOf(snap) {
				for _, tp := range l {
					if want := payload(tp.Seq); string(tp.Payload) != string(want) || int(tp.Stream) != stream {
						t.Fatalf("group %d: resident tuple %v carries a payload or stream it was not stored with", id, tp)
					}
				}
			}
		}
		if ops[1-owner[id]].ResidentSnapshot(partition.ID(id)) != nil {
			t.Fatalf("group %d resident at both operators", id)
		}
		if _, err := cleanup.Group(inputs, gens, window, emit); err != nil {
			t.Fatal(err)
		}
	}
	if mem := ops[0].MemBytes() + ops[1].MemBytes(); mem != resident {
		t.Fatalf("operators account %d resident bytes, their snapshots hold %d", mem, resident)
	}
	want := join.Oracle(inputs, history)
	if window > 0 {
		want = join.WindowedOracle(inputs, history, window)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d results, oracle %d", got.Len(), want.Len())
	}
	if missing := want.Diff(got); len(missing) > 0 {
		t.Fatalf("%d oracle results never produced, e.g. %s", len(missing), missing[0])
	}
}

// halve splits a relocated snapshot in two: the first half of every
// input's tuples, with the group's header, and the rest.
func halve(snap *join.GroupSnapshot) (first, rest *join.GroupSnapshot) {
	var x, y []tuple.Tuple
	for _, l := range join.TuplesOf(snap) {
		x, y = append(x, l[:len(l)/2]...), append(y, l[len(l)/2:]...)
	}
	a, b := *snap, *snap
	a.Inputs = join.SnapshotOf(snap.ID, snap.Gen, len(snap.Inputs), x...).Inputs
	b.Inputs = join.SnapshotOf(snap.ID, snap.Gen, len(snap.Inputs), y...).Inputs
	return &a, &b
}

// sameSnapshot fails unless got encodes to want's bytes (or both are nil).
func sameSnapshot(t *testing.T, what string, want, got *join.GroupSnapshot) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: count-only snapshot %v, emitting %v", what, got != nil, want != nil)
	}
	if want != nil && !bytes.Equal(join.EncodeSnapshot(got), join.EncodeSnapshot(want)) {
		t.Fatalf("%s: the count-only operator's snapshot encodes differently from the emitting operator's", what)
	}
}
