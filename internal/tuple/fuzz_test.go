package tuple

import (
	"bytes"
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
