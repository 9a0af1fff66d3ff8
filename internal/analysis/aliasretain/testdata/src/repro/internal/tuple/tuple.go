// Package tuple is a miniature of the real package: the scratch-buffer
// vocabulary the analyzer tracks. The package itself is exempt (it is
// the producer side of the contract).
package tuple

// Tuple is one input tuple; Payload aliases the decode slab.
type Tuple struct {
	Key     uint64
	Seq     uint64
	Payload []byte
}

// Result is one join match. Seqs handed to an EmitFunc is the
// producer's scratch buffer.
type Result struct {
	Key  uint64
	Seqs []uint64
}

// Clone returns a deep copy whose Seqs the caller owns.
func (r *Result) Clone() Result {
	return Result{Key: r.Key, Seqs: append([]uint64(nil), r.Seqs...)}
}

// AppendTo appends the binary encoding of r to dst (a value copy).
func (r *Result) AppendTo(dst []byte) []byte {
	dst = append(dst, byte(r.Key))
	for _, s := range r.Seqs {
		dst = append(dst, byte(s))
	}
	return dst
}

// DecodeSlab parses one tuple from buf, appending its payload to slab.
func DecodeSlab(buf, slab []byte) (Tuple, int, []byte, error) {
	n := len(slab)
	slab = append(slab, buf...)
	return Tuple{Payload: slab[n:]}, len(buf), slab, nil
}

// Clone returns a copy of t that owns its payload.
func (t Tuple) Clone() Tuple {
	c, _ := t.CloneInto(nil)
	return c
}

// CloneInto returns a copy of t whose payload lives in slab.
func (t Tuple) CloneInto(slab []byte) (Tuple, []byte) {
	n := len(slab)
	slab = append(slab, t.Payload...)
	return Tuple{Key: t.Key, Seq: t.Seq, Payload: slab[n:]}, slab
}

// AppendTo appends the binary encoding of t to dst (a value copy).
func (t *Tuple) AppendTo(dst []byte) []byte {
	return append(append(dst, byte(t.Key)), t.Payload...)
}

// BatchReader is a cursor over an encoded run; Next yields views whose
// Payload aliases the run.
type BatchReader struct{ buf []byte }

// Next sets t to a view of the next tuple.
func (r *BatchReader) Next(t *Tuple) bool {
	if len(r.buf) == 0 {
		return false
	}
	t.Payload, r.buf = r.buf[:1], r.buf[1:]
	return true
}
