package tuple

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vclock"
)

// drain reads a cursor to its end, cloning every view.
func drain(r BatchReader) []Tuple {
	out := make([]Tuple, 0, r.Len())
	var t Tuple
	for r.Next(&t) {
		out = append(out, t.Clone())
	}
	return out
}

// The cursor and DecodeBatch are two readings of the same bytes: same
// tuples in the same order, over random batches that include the edge
// shapes (no tuples, empty payloads, one payload as long as a frame
// carries).
func TestBatchReaderMatchesDecodeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const longest = 1 << 20
	for round := 0; round < 200; round++ {
		var b Batch
		for i, n := 0, rng.Intn(6)*rng.Intn(60); i < n; i++ {
			var payload []byte
			switch rng.Intn(10) {
			case 0: // empty
			case 1:
				if round%50 == 0 {
					payload = bytes.Repeat([]byte{byte(i)}, longest)
					break
				}
				fallthrough
			default:
				payload = bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(80))
			}
			b.Tuples = append(b.Tuples, Tuple{
				Stream: uint8(rng.Intn(4)), Key: rng.Uint64(), Seq: uint64(i),
				Ts: vclock.Time(rng.Int63()), Payload: payload,
			})
		}
		buf := b.Encode()
		want, err := DecodeBatch(buf)
		if err != nil {
			t.Fatalf("round %d: DecodeBatch: %v", round, err)
		}
		r, err := ReadBatch(buf)
		if err != nil {
			t.Fatalf("round %d: ReadBatch: %v", round, err)
		}
		if r.Len() != len(b.Tuples) {
			t.Fatalf("round %d: Len = %d, want %d", round, r.Len(), len(b.Tuples))
		}
		fork := r // a copy is an independent cursor
		got := drain(r)
		if !reflect.DeepEqual(got, want.Tuples) {
			t.Fatalf("round %d: cursor and DecodeBatch disagree", round)
		}
		if again := drain(fork); !reflect.DeepEqual(again, got) {
			t.Fatalf("round %d: a copied cursor read something else", round)
		}
		// The same tuples without the count in front are a run.
		run, err := ReadRun(buf[4:])
		if err != nil || !reflect.DeepEqual(drain(run), got) {
			t.Fatalf("round %d: ReadRun disagrees (err %v)", round, err)
		}
		if !reflect.DeepEqual(drain(TrustedRun(buf[4:], len(got))), got) {
			t.Fatalf("round %d: TrustedRun disagrees", round)
		}
	}
}

// Views alias the buffer (that is the point), clones do not, and a
// drained cursor stays drained.
func TestBatchReaderYieldsViews(t *testing.T) {
	b := Batch{Tuples: []Tuple{{Key: 1, Payload: []byte("abc")}, {Key: 2}}}
	buf := b.Encode()
	r, err := ReadBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	var v Tuple
	if !r.Next(&v) {
		t.Fatal("no first tuple")
	}
	own := v.Clone()
	buf[4+headerSize] = 'X'
	if string(v.Payload) != "Xbc" || string(own.Payload) != "abc" {
		t.Fatalf("view %q, clone %q after the buffer changed", v.Payload, own.Payload)
	}
	if cap(v.Payload) != 3 {
		t.Fatalf("view capacity %d reaches past its payload", cap(v.Payload))
	}
	if !r.Next(&v) || v.Key != 2 || v.Payload != nil {
		t.Fatalf("second tuple = %+v, want key 2 with the first one's payload cleared", v)
	}
	if r.Next(&v) || r.Next(&v) || r.Len() != 0 {
		t.Fatal("a drained cursor yielded again")
	}
}

// A malformed run is rejected when the cursor is opened: no caller gets
// to see its first tuples and then an error.
func TestBatchReaderRejectsWhole(t *testing.T) {
	good := (&Batch{Tuples: []Tuple{{Key: 1, Payload: []byte("0123456789")}, {Key: 2, Payload: []byte("x")}}}).Encode()
	count := func(n uint32) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b, n)
		return b
	}
	// One tuple as large as three: the count check alone cannot tell.
	one := (&Batch{Tuples: []Tuple{{Key: 1, Payload: make([]byte, 3*headerSize)}}}).Encode()
	binary.LittleEndian.PutUint32(one, 2)
	for _, tc := range []struct {
		name, want string
		buf        []byte
	}{
		{"short header", "short batch buffer", good[:3]},
		{"count beyond capacity", "exceeds buffer capacity", count(1 << 30)},
		{"count one too many", "exceeds buffer capacity", count(3)},
		{"count one too many, large tuple", "buffer ends before it", one},
		{"count one too few", "trailing bytes", count(1)},
		{"truncated last payload", "truncated", good[:len(good)-1]},
		{"truncated header", "truncated", good[:len(good)-3]},
		{"trailing bytes", "trailing bytes", append(bytes.Clone(good), 0)},
	} {
		if _, err := ReadBatch(tc.buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadBatch error = %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if _, err := DecodeBatch(tc.buf); err == nil {
			t.Errorf("%s: DecodeBatch accepted it", tc.name)
		}
	}
	if _, err := ReadRun(good[4 : len(good)-1]); err == nil {
		t.Error("ReadRun accepted a truncated run")
	}
	if r, err := ReadRun(nil); err != nil || r.Len() != 0 {
		t.Errorf("ReadRun(nil) = %d tuples, %v; want an empty run", r.Len(), err)
	}
}
