package join

import "repro/internal/tuple"

// Oracle computes the complete m-way equi-join result over the full input
// history with a straightforward nested enumeration. It is the reference
// the exactness invariant is checked against: run-time results plus
// cleanup results must equal the oracle's output exactly (no duplicates,
// no misses), for any sequence of spills and relocations.
func Oracle(inputs int, history []tuple.Tuple) *tuple.ResultSet {
	set := tuple.NewResultSet()
	seqs := make([]uint64, inputs)
	for key, ls := range joinable(inputs, history) {
		enumerateAll(key, ls, seqs, 0, set)
	}
	return set
}

// joinable buckets history by key, one list per input, and keeps the
// keys every input holds: the only keys a result can have.
func joinable(inputs int, history []tuple.Tuple) map[uint64][][]tuple.Tuple {
	byKey := make(map[uint64][][]tuple.Tuple)
	for i := range history {
		t := history[i]
		ls := byKey[t.Key]
		if ls == nil {
			ls = make([][]tuple.Tuple, inputs)
			byKey[t.Key] = ls
		}
		ls[t.Stream] = append(ls[t.Stream], t)
	}
	for key, ls := range byKey {
		for _, l := range ls {
			if len(l) == 0 {
				delete(byKey, key)
				break
			}
		}
	}
	return byKey
}

// OracleCount returns only the size of the full join result, cheap enough
// for large histories where materializing the oracle set is wasteful.
func OracleCount(inputs int, history []tuple.Tuple) uint64 {
	counts := make(map[uint64][]uint64)
	for i := range history {
		t := history[i]
		c := counts[t.Key]
		if c == nil {
			c = make([]uint64, inputs)
			counts[t.Key] = c
		}
		c[t.Stream]++
	}
	var total uint64
	for _, c := range counts {
		prod := uint64(1)
		for _, n := range c {
			prod *= n
		}
		total += prod
	}
	return total
}

func enumerateAll(key uint64, ls [][]tuple.Tuple, seqs []uint64, input int, set *tuple.ResultSet) {
	if input == len(ls) {
		out := make([]uint64, len(seqs))
		copy(out, seqs)
		set.Add(tuple.Result{Key: key, Seqs: out})
		return
	}
	for i := range ls[input] {
		seqs[input] = ls[input][i].Seq
		enumerateAll(key, ls, seqs, input+1, set)
	}
}
