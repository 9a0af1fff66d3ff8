package join

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// updateGolden rewrites testdata/*.golden from the running code. The
// committed bytes were generated at the commit before the pointer-free
// resident layout landed; regenerate them only for a deliberate change
// of the snapshot format or order, never to make this test pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite the snapshot byte-golden files")

// goldenInput is the fixed 3-way history behind the golden files: keys
// arrive out of key order (including both ends of the key space),
// several tuples share a key and stream, timestamps arrive slightly out
// of order, and payload sizes vary from none to a few hundred bytes.
func goldenInput() []tuple.Tuple {
	keys := []uint64{7, math.MaxUint64, 0, 7, 1 << 40, 3, 0, 7, 3, math.MaxUint64, 12, 7}
	var in []tuple.Tuple
	for i := 0; i < 120; i++ {
		var payload []byte
		if n := (i * 37) % 301; i%5 != 0 {
			payload = make([]byte, n)
			for j := range payload {
				payload[j] = byte(i + j)
			}
		}
		ts := vclock.Time(time.Duration(i) * time.Second)
		if i%7 == 3 {
			ts -= vclock.Time(3 * time.Second) // mild disorder
		}
		in = append(in, tuple.Tuple{
			Stream:  uint8((i + i/9) % 3),
			Key:     keys[(i*5+i/11)%len(keys)],
			Seq:     uint64(1000 + i),
			Ts:      ts,
			Payload: payload,
		})
	}
	return in
}

func checkGolden(t *testing.T, name string, snap *GroupSnapshot) {
	t.Helper()
	got := EncodeSnapshot(snap)
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoded snapshot differs from the committed bytes (%d vs %d bytes): spill segments and the group images in StateTransfer and DeltaSeed would no longer be bit-compatible", name, len(got), len(want))
	}
}

// TestSnapshotBytesGolden pins every EncodeSnapshot byte the operator
// can produce — the (key, insertion order) flattening, the counters and
// the spill watermark — for the unbounded operator's resident and spill
// snapshots and for the windowed operator's timestamp-ordered lists.
func TestSnapshotBytesGolden(t *testing.T) {
	in := goldenInput()
	op := New(3, partition.NewFunc(1), nil)
	for _, tp := range in[:80] {
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "resident_gen0.golden", op.ResidentSnapshot(0))
	checkGolden(t, "spill_gen0.golden", op.ExtractForSpill(0))
	for _, tp := range in[80:] {
		if _, err := op.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "resident_gen1.golden", op.ResidentSnapshot(0))
	checkGolden(t, "relocate_gen1.golden", op.RemoveForRelocation(0))

	win := NewWindowed(3, partition.NewFunc(1), 40*time.Second, nil)
	for _, tp := range in {
		if _, err := win.Process(tp); err != nil {
			t.Fatal(err)
		}
	}
	win.Purge(vclock.Time(30 * time.Second))
	checkGolden(t, "windowed_resident.golden", win.ResidentSnapshot(0))
	checkGolden(t, "windowed_spill.golden", win.ExtractForSpill(0))
}
