package tuple

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// FuzzDecode ensures the tuple codec never panics or over-reads on
// arbitrary input, and that accepted inputs round-trip.
func FuzzDecode(f *testing.F) {
	seed := Tuple{Stream: 1, Key: 2, Seq: 3, Ts: 4, Payload: []byte("abc")}
	f.Add(seed.AppendTo(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, used, err := Decode(data)
		if err != nil {
			return
		}
		if used <= 0 || used > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", used, len(data))
		}
		re := tp.AppendTo(nil)
		if !bytes.Equal(re, data[:used]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:used])
		}
	})
}

// FuzzDecodeBatch ensures the batch codec is total and that accepted
// batches re-encode identically.
func FuzzDecodeBatch(f *testing.F) {
	b := Batch{Tuples: []Tuple{{Key: 1, Payload: []byte("x")}, {Stream: 2, Seq: 9}}}
	f.Add(b.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x00, 0x00, 0x00})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xff})
	f.Add(append(b.Encode(), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeBatch(data)
		r, rerr := ReadBatch(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeBatch says %v, the cursor %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(batch.Encode(), data) {
			t.Fatal("batch re-encode mismatch")
		}
		// The cursor yields the same tuples, as views into data, and a
		// bare run of them reads the same.
		run, err := ReadRun(data[4:])
		if err != nil || run.Len() != r.Len() || r.Len() != len(batch.Tuples) {
			t.Fatalf("cursor over %d tuples counts %d, as a run %d (%v)", len(batch.Tuples), r.Len(), run.Len(), err)
		}
		re := data[:4:4]
		var v, w Tuple
		for r.Next(&v) && run.Next(&w) {
			if len(v.Payload) > 0 && &v.Payload[0] != &w.Payload[0] {
				t.Fatal("a view does not alias its buffer")
			}
			re = v.AppendTo(re)
		}
		if !bytes.Equal(re, data) || run.Len() != 0 {
			t.Fatal("cursor re-encode mismatch")
		}
	})
}

// FuzzDecodeResult covers the result codec.
func FuzzDecodeResult(f *testing.F) {
	r := Result{Key: 7, Seqs: []uint64{1, 2, 3}}
	f.Add(r.AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, used, err := DecodeResult(data)
		if err != nil {
			return
		}
		if used <= 0 || used > len(data) {
			t.Fatalf("DecodeResult consumed %d of %d bytes", used, len(data))
		}
		if !bytes.Equal(res.AppendTo(nil), data[:used]) {
			t.Fatal("result re-encode mismatch")
		}
	})
}

// FuzzReadResults holds the payload cursor the application server reads
// every ResultData frame with to repeated DecodeResult calls: it fails
// exactly where they fail, or yields the same results, none of whose
// Seqs shares storage with another's.
func FuzzReadResults(f *testing.F) {
	rs := []Result{{Key: 7, Seqs: []uint64{1, 2, 3}}, {Key: 8}, {Key: 9, Seqs: []uint64{4, 5}}}
	var frame []byte
	for i := range rs {
		frame = rs[i].AppendTo(frame)
	}
	f.Add(frame)
	f.Add(frame[:len(frame)-1])
	f.Add(append(bytes.Clone(frame), 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []Result
		var wantErr error
		for off := 0; off < len(data); {
			r, used, err := DecodeResult(data[off:])
			if err != nil {
				wantErr = fmt.Errorf("%v (result %d at byte %d)", err, len(want), off)
				break
			}
			want = append(want, r)
			off += used
		}
		rd, err := ReadResults(data)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ReadResults error %v, DecodeResult calls %v", err, wantErr)
			}
			return
		}
		got := make([]Result, 0, len(want))
		var r Result
		for rd.Next(&r) {
			got = append(got, r)
		}
		if len(got) != len(want) {
			t.Fatalf("cursor yields %d results, DecodeResult %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || !slices.Equal(got[i].Seqs, want[i].Seqs) || cap(got[i].Seqs) != len(got[i].Seqs) {
				t.Fatalf("result %d: cursor %+v (cap %d), DecodeResult %+v", i, got[i], cap(got[i].Seqs), want[i])
			}
		}
		// Mark every seq with its own position; a shared slot would keep
		// only the last mark written into it.
		for i := range got {
			for j := range got[i].Seqs {
				got[i].Seqs[j] = uint64(i)<<32 | uint64(j)
			}
		}
		for i := range got {
			for j, v := range got[i].Seqs {
				if v != uint64(i)<<32|uint64(j) {
					t.Fatalf("result %d seq %d shares storage with another result's", i, j)
				}
			}
		}
	})
}
