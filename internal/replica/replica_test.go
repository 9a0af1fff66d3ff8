package replica

import (
	"bytes"
	"testing"

	"repro/internal/join"
	"repro/internal/tuple"
)

func tup(stream uint8, seq uint64, payload int) tuple.Tuple {
	return tuple.Tuple{Stream: stream, Key: 3, Seq: seq, Payload: bytes.Repeat([]byte{byte(seq)}, payload)}
}

func run(ts ...tuple.Tuple) []byte {
	var b []byte
	for i := range ts {
		b = ts[i].AppendTo(b)
	}
	return b
}

// A slot buffers only while live, and Cut hands out an exact copy and
// keeps the buffer, so a steady stream appends without allocating.
func TestTapBuffersLiveSlotsAndCutKeepsTheBuffer(t *testing.T) {
	type stream struct{}
	tap := make(Tap[stream], 2)
	tp := tup(0, 1, 10)
	tap.Append(0, &tp)
	if len(tap[0].Buf) != 0 {
		t.Fatal("a slot without a live stream buffered an append")
	}
	tap[0].Live = &stream{}
	for i := 0; i < 4; i++ {
		tap.Append(0, &tp)
	}
	want := 4 * tp.EncodedSize()
	if got := tap[0].Cut(); len(got) != want {
		t.Fatalf("cut %d bytes, want %d", len(got), want)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 4; i++ {
			tap.Append(0, &tp)
		}
		tap[0].Buf = tap[0].Buf[:0]
	}); allocs != 0 {
		t.Fatalf("appending a tick's worth after a cut allocates %v times", allocs)
	}
	tap[0].Reseed()
	if tap[0].Live != nil || tap[0].Buf != nil {
		t.Fatal("Reseed left the slot streaming")
	}
	if got := tap[1].Cut(); got != nil || tap[1].Buf != nil {
		t.Fatal("cutting an empty slot allocated")
	}
}

// batch is the snapshot encoding of one input holding ts.
func batch(ts ...tuple.Tuple) []byte { return (&tuple.Batch{Tuples: ts}).Encode() }

// Append keeps a checked copy of the run and charges it; Image folds
// the tail into the memory tier without changing the standby, and a run
// that fails the check changes nothing.
func TestStandbyKeepsAppendsEncoded(t *testing.T) {
	sb := NewStandby(&join.GroupSnapshot{ID: 1, Gen: 2, Inputs: [][]byte{batch(tup(0, 1, 4)), nil}})
	memBytes := sb.Bytes()
	a, b, c := tup(1, 2, 7), tup(0, 3, 0), tup(1, 4, 3)
	payload := run(a, b)
	n, err := sb.Append(payload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != a.MemSize()+b.MemSize() || sb.Bytes() != memBytes+n || sb.Mem.CumBytes != n {
		t.Fatalf("charged %d (standby %d bytes, CumBytes %d)", n, sb.Bytes(), sb.Mem.CumBytes)
	}
	payload[0] = 9 // the frame is recycled: the standby kept its own copy
	if _, err := sb.Append(run(c), 2); err != nil {
		t.Fatal(err)
	}
	before := sb.Bytes()
	for name, bad := range map[string][]byte{"truncated": run(c)[:5], "input beyond the join": run(tup(2, 5, 1))} {
		if _, err := sb.Append(bad, 2); err == nil {
			t.Errorf("%s run accepted", name)
		}
	}
	if sb.Bytes() != before || len(sb.tail) != 2 {
		t.Fatalf("rejected runs changed the standby: %d bytes, %d runs", sb.Bytes(), len(sb.tail))
	}

	im := sb.Image()
	want := [][]byte{batch(tup(0, 1, 4), b), batch(a, c)}
	if len(sb.tail) != 2 || sb.Mem.TupleCount() != 1 || sb.Mem.Inputs[1] != nil {
		t.Fatal("Image changed the standby")
	}
	check := func(what string, got *join.GroupSnapshot) {
		t.Helper()
		exp := &join.GroupSnapshot{ID: 1, Gen: 2, CumBytes: sb.Mem.CumBytes, Inputs: want}
		if !bytes.Equal(join.EncodeSnapshot(got), join.EncodeSnapshot(exp)) {
			t.Fatalf("%s = %x, want %x", what, got.Inputs, want)
		}
	}
	check("Image", im)
	if sb.Bytes() != before || im.MemBytes() != before {
		t.Fatalf("the standby charges %d bytes, its image holds %d, want %d", sb.Bytes(), im.MemBytes(), before)
	}
}
