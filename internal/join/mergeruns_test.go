package join_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// TestMergeRunsMatchesDecodedMerge: a memory tier merged as a snapshot
// and its later appends merged as encoded runs leave the group exactly as
// one Merge of the tier with the appends decoded onto its lists — the
// promoted follower's lazy path against its eager one — for count-only,
// emitting and windowed operators, into an absent and a resident group.
func TestMergeRunsMatchesDecodedMerge(t *testing.T) {
	const inputs, partitions = 3, 4
	pf := partition.NewFunc(partitions)
	kinds := map[string]func() *join.Operator{
		"count-only": func() *join.Operator { return join.New(inputs, pf, nil) },
		"emitting":   func() *join.Operator { return join.New(inputs, pf, func(tuple.Result) {}) },
		"windowed":   func() *join.Operator { return join.NewWindowed(inputs, pf, 50*time.Millisecond, nil) },
	}
	for name, mk := range kinds {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				const g = partition.ID(2)
				next := uint64(0)
				tup := func() tuple.Tuple {
					next++
					return tuple.Tuple{Stream: uint8(rng.Intn(inputs)), Key: uint64(g) + partitions*uint64(rng.Intn(9)),
						Seq: next, Ts: vclock.Time(rng.Intn(1000)) * vclock.Time(time.Millisecond),
						Payload: bytes.Repeat([]byte{byte(next)}, rng.Intn(24))}
				}
				var seeded []tuple.Tuple
				for i := rng.Intn(40); i > 0; i-- {
					seeded = append(seeded, tup())
				}
				seed := join.SnapshotOf(g, 3, inputs, seeded...)
				seed.Output, seed.CumBytes = 17, 999
				var runs [][]byte
				all := seeded
				for r := rng.Intn(6); r > 0; r-- {
					var run []byte
					for i := rng.Intn(30); i > 0; i-- {
						tp := tup()
						run = tp.AppendTo(run)
						all = append(all, tp)
					}
					runs = append(runs, run)
				}
				// The reference: one snapshot holding the runs' tuples
				// after the seed's, each at the end of its input.
				eager := join.SnapshotOf(g, seed.Gen, inputs, all...)
				eager.Output, eager.CumBytes = seed.Output, seed.CumBytes
				for _, resident := range []bool{false, true} {
					want, got := mk(), mk()
					if resident {
						for _, op := range []*join.Operator{want, got} {
							if _, err := op.Process(tuple.Tuple{Stream: 0, Key: uint64(g), Seq: 1 << 40}); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := want.Merge(eager); err != nil {
						t.Fatal(err)
					}
					if err := got.Merge(seed); err != nil {
						t.Fatal(err)
					}
					if err := got.MergeRuns(g, runs...); err != nil {
						t.Fatal(err)
					}
					w, h := join.EncodeSnapshot(want.ResidentSnapshot(g)), join.EncodeSnapshot(got.ResidentSnapshot(g))
					if !bytes.Equal(w, h) {
						t.Fatalf("resident=%v: merged runs snapshot differently from the decoded merge", resident)
					}
					if want.MemBytes() != got.MemBytes() || want.Output() != got.Output() {
						t.Fatalf("resident=%v: %d bytes and %d results, want %d and %d", resident,
							got.MemBytes(), got.Output(), want.MemBytes(), want.Output())
					}
				}
			})
		}
	}
}

// A run that cannot land — malformed, for an input the join lacks, or
// for a group beyond the partitions — is rejected before any run lands.
func TestMergeRunsRejectsWholly(t *testing.T) {
	good := tuple.Tuple{Stream: 1, Key: 1, Seq: 1, Payload: []byte("x")}
	bad := good
	bad.Stream = 2
	for name, tc := range map[string]struct {
		id   partition.ID
		runs [][]byte
	}{
		"truncated run":      {1, [][]byte{good.AppendTo(nil), good.AppendTo(nil)[:10]}},
		"stream out of join": {1, [][]byte{good.AppendTo(nil), bad.AppendTo(nil)}},
		"group out of range": {9, [][]byte{good.AppendTo(nil)}},
	} {
		op := join.New(2, partition.NewFunc(4), nil)
		if err := op.MergeRuns(tc.id, tc.runs...); err == nil {
			t.Errorf("%s: merged", name)
		}
		if op.Groups() != 0 || op.MemBytes() != 0 {
			t.Errorf("%s: a rejected merge left %d groups and %d bytes", name, op.Groups(), op.MemBytes())
		}
	}
}
