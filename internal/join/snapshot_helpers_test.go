package join

import (
	"repro/internal/partition"
	"repro/internal/tuple"
)

// Exported for the external test package too.

// TuplesOf decodes s's inputs into one list per input, each tuple a view
// of s's bytes: how tests compare what a snapshot holds.
func TuplesOf(s *GroupSnapshot) [][]tuple.Tuple {
	out := make([][]tuple.Tuple, len(s.Inputs))
	var t tuple.Tuple
	for i := range s.Inputs {
		for r := s.Input(i); r.Next(&t); {
			out[i] = append(out[i], t)
		}
	}
	return out
}

// SnapshotOf returns a snapshot of group id at generation gen with the
// given number of inputs, holding tuples in order, each in the input its
// Stream names.
func SnapshotOf(id partition.ID, gen uint32, inputs int, tuples ...tuple.Tuple) *GroupSnapshot {
	s := &GroupSnapshot{ID: id, Gen: gen, Inputs: make([][]byte, inputs)}
	var run []byte
	for i := range tuples {
		run = tuples[i].AppendTo(run)
	}
	if err := s.Append(run); err != nil {
		panic(err)
	}
	return s
}
