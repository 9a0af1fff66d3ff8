package join_test

import (
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
// operator by Install or by Install+Merge of a split snapshot, and, for
// the windowed join, Purge — under a seeded schedule, then cleans up
// with cleanup.Group. Run-time plus cleanup results must equal the
// oracle's exactly, with 1 and with 4 shards.
func TestDifferentialAgainstOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, window := range []time.Duration{0, 150 * time.Millisecond} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("shards=%d/window=%s/seed=%d", shards, window, seed), func(t *testing.T) {
					differential(t, shards, window, seed)
				})
			}
		}
	}
}

func differential(t *testing.T, shards int, window time.Duration, seed int64) {
	const (
		inputs     = 3
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
	// each group.
	ops := [2]*join.Operator{
		join.NewWindowedSharded(inputs, pf, window, shards, emit),
		join.NewWindowedSharded(inputs, pf, window, shards, emit),
	}
	owner := make([]int, partitions)
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
		op := ops[owner[id]]
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
			if _, err := ops[owner[pf.Of(tp.Key)]].Process(tp); err != nil {
				t.Fatal(err)
			}
		case r < 975:
			snap := op.ExtractForSpill(id)
			if snap == nil {
				continue
			}
			decoded, err := join.DecodeSnapshot(join.EncodeSnapshot(snap))
			if err != nil {
				t.Fatal(err)
			}
			spilled[id] = append(spilled[id], decoded)
		case r < 985:
			snap := op.RemoveForRelocation(id)
			if snap == nil {
				continue
			}
			owner[id] = 1 - owner[id]
			if err := ops[owner[id]].Install(snap); err != nil {
				t.Fatal(err)
			}
		case r < 995:
			// Relocate in two parts: the first half of every input's
			// tuples is installed, the rest merged on top.
			snap := op.RemoveForRelocation(id)
			if snap == nil {
				continue
			}
			rest := *snap
			rest.Tuples = make([][]tuple.Tuple, inputs)
			for i, l := range snap.Tuples {
				snap.Tuples[i], rest.Tuples[i] = l[:len(l)/2], l[len(l)/2:]
			}
			owner[id] = 1 - owner[id]
			if err := ops[owner[id]].Install(snap); err != nil {
				t.Fatal(err)
			}
			if err := ops[owner[id]].Merge(&rest); err != nil {
				t.Fatal(err)
			}
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
		if snap := ops[owner[id]].ResidentSnapshot(partition.ID(id)); snap != nil {
			gens = append(gens, snap)
			resident += snap.MemBytes()
			for stream, l := range snap.Tuples {
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
