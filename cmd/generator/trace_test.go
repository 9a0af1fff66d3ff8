package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func tracePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.trace")
}

func TestRoundTrip(t *testing.T) {
	path := tracePath(t)
	w, err := createTrace(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	var want []tuple.Tuple
	for i := 0; i < 100; i++ {
		tp := tuple.Tuple{
			Stream: uint8(i % 3), Key: uint64(i * 7), Seq: uint64(i),
			Ts: vclock.Time(i) * vclock.Time(time.Millisecond), Payload: []byte{byte(i)},
		}
		want = append(want, tp)
		if err := w.Append(&tp); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 100 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := openTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Streams() != 3 || r.Count() != 100 {
		t.Fatalf("streams=%d count=%d", r.Streams(), r.Count())
	}
	var got []tuple.Tuple
	for {
		tp, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tp)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("trace round trip mismatch")
	}
}

func TestEmptyTrace(t *testing.T) {
	path := tracePath(t)
	w, err := createTrace(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := openTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on empty trace = %v", err)
	}
}

func TestCreateValidation(t *testing.T) {
	if _, err := createTrace(tracePath(t), 0); err == nil {
		t.Fatal("zero streams accepted")
	}
	if _, err := createTrace(tracePath(t), 300); err == nil {
		t.Fatal("300 streams accepted")
	}
	if _, err := createTrace("/nonexistent-dir-xyz/t.trace", 2); err == nil {
		t.Fatal("bad path accepted")
	}
}

func TestOpenDetectsCorruption(t *testing.T) {
	path := tracePath(t)
	w, _ := createTrace(path, 2)
	tp := tuple.Tuple{Key: 1}
	w.Append(&tp)
	w.Close()
	buf, _ := os.ReadFile(path)
	buf[len(buf)/2] ^= 0xff
	os.WriteFile(path, buf, 0o644)
	if _, err := openTrace(path); err == nil {
		t.Fatal("corrupted trace opened")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := tracePath(t)
	os.WriteFile(path, []byte("not a trace"), 0o644)
	if _, err := openTrace(path); err == nil {
		t.Fatal("garbage opened as trace")
	}
	if _, err := openTrace(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file opened")
	}
}

// TestRecordWorkload round-trips a synthetic workload through a trace:
// the recorded feed replays the exact same tuples, making experiments
// reproducible from files.
func TestRecordWorkload(t *testing.T) {
	wl := workload.Config{
		Streams:      3,
		Partitions:   12,
		Classes:      []workload.Class{{Fraction: 1, JoinRate: 2, TupleRange: 240}},
		InterArrival: 10 * time.Millisecond,
		PayloadBytes: 16,
		Seed:         5,
	}
	gen, err := workload.New(wl)
	if err != nil {
		t.Fatal(err)
	}
	path := tracePath(t)
	w, err := createTrace(path, wl.Streams)
	if err != nil {
		t.Fatal(err)
	}
	var want []tuple.Tuple
	for i := 0; i < 300; i++ {
		tp := gen.Next(i%wl.Streams, vclock.Time(i)*vclock.Time(wl.InterArrival))
		want = append(want, tp)
		if err := w.Append(&tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := openTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != want[i].Key || got.Seq != want[i].Seq || got.Stream != want[i].Stream {
			t.Fatalf("tuple %d differs: %v vs %v", i, got, want[i])
		}
	}
}
