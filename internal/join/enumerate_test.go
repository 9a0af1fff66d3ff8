package join

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// refEnumerate is a recursive enumerator: nested loops over lists, the
// first input outermost and the last innermost, with seq bound at input
// self. It appends a copy of every combination to out.
func refEnumerate(key uint64, lists [][]uint64, self int, seq uint64, seqs []uint64, input int, out []tuple.Result) []tuple.Result {
	if input == len(lists) {
		return append(out, tuple.Result{Key: key, Seqs: slices.Clone(seqs)})
	}
	if input == self {
		seqs[input] = seq
		return refEnumerate(key, lists, self, seq, seqs, input+1, out)
	}
	for _, q := range lists[input] {
		seqs[input] = q
		out = refEnumerate(key, lists, self, seq, seqs, input+1, out)
	}
	return out
}

// TestEnumerateMatchesReference holds a probe's emitted sequence to the
// recursive enumerator's, result for result: arities 2 to 5, the probing
// tuple at every input (the last included, where the innermost loop is
// the input before it), matched lists of 1 to 6 tuples, unbounded and
// windowed. The stored tuples are merged, so only the probe emits.
func TestEnumerateMatchesReference(t *testing.T) {
	const (
		key    = 7
		maxLen = 6
		trials = 30
	)
	rng := rand.New(rand.NewSource(29))
	for inputs := 2; inputs <= 5; inputs++ {
		for self := 0; self < inputs; self++ {
			for _, window := range []time.Duration{0, 30} {
				for trial := 0; trial < trials; trial++ {
					name := fmt.Sprintf("inputs=%d/self=%d/window=%s/trial=%d", inputs, self, window, trial)
					var got []tuple.Result
					op := NewWindowed(inputs, partition.NewFunc(1), window, func(r tuple.Result) { got = append(got, r.Clone()) })
					var stored []tuple.Tuple
					lists := make([][]uint64, inputs)
					probe := tuple.Tuple{Stream: uint8(self), Key: key, Seq: 1000, Ts: vclock.Time(rng.Intn(100))}
					seq := uint64(0)
					for i := 0; i < inputs; i++ {
						if i == self {
							continue
						}
						// Timestamps ascend within a list, so the run's order
						// is the order stored.
						ts := vclock.Time(0)
						for n := 1 + rng.Intn(maxLen); n > 0; n-- {
							seq++
							ts += vclock.Time(rng.Intn(25))
							stored = append(stored, tuple.Tuple{Stream: uint8(i), Key: key, Seq: seq, Ts: ts})
							if window == 0 || ts.Sub(probe.Ts).Abs() <= window {
								lists[i] = append(lists[i], seq)
							}
						}
					}
					if err := op.Merge(SnapshotOf(0, 0, inputs, stored...)); err != nil {
						t.Fatal(err)
					}
					n, err := op.Process(probe)
					if err != nil {
						t.Fatal(err)
					}
					var want []tuple.Result
					full := true
					for i, l := range lists {
						full = full && (i == self || len(l) > 0)
					}
					if full {
						want = refEnumerate(key, lists, self, probe.Seq, make([]uint64, inputs), 0, nil)
					}
					if n != uint64(len(want)) || len(got) != len(want) {
						t.Fatalf("%s: counted %d, emitted %d results, reference %d", name, n, len(got), len(want))
					}
					for j := range want {
						if got[j].Key != want[j].Key || !slices.Equal(got[j].Seqs, want[j].Seqs) {
							t.Fatalf("%s: result %d is %v, reference %v", name, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}
