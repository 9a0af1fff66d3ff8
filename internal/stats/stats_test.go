package stats

import (
	"strings"
	"testing"
	"time"

	"repro/internal/vclock"
)

func ts(d time.Duration) vclock.Time { return vclock.Time(d) }

func TestSeriesAddAndAt(t *testing.T) {
	s := NewSeries("mem")
	if s.Name() != "mem" {
		t.Fatalf("Name = %q", s.Name())
	}
	s.Add(ts(time.Minute), 10)
	s.Add(ts(2*time.Minute), 20)
	s.Add(ts(3*time.Minute), 15)
	if got := s.At(ts(90 * time.Second)); got != 10 {
		t.Fatalf("At(1.5m) = %v, want 10 (carry forward)", got)
	}
	if got := s.At(ts(2 * time.Minute)); got != 20 {
		t.Fatalf("At(2m) = %v, want 20", got)
	}
	if got := s.At(ts(30 * time.Second)); got != 0 {
		t.Fatalf("At before first point = %v, want 0", got)
	}
	if s.Last() != 15 || s.Max() != 20 || s.Len() != 3 {
		t.Fatalf("Last=%v Max=%v Len=%d", s.Last(), s.Max(), s.Len())
	}
}

func TestSeriesOutOfOrderInsert(t *testing.T) {
	s := NewSeries("x")
	s.Add(ts(2*time.Minute), 20)
	s.Add(ts(time.Minute), 10) // late report
	pts := s.Points()
	if len(pts) != 2 || pts[0].V != 10 || pts[1].V != 20 {
		t.Fatalf("points = %v", pts)
	}
	if got := s.At(ts(90 * time.Second)); got != 10 {
		t.Fatalf("At(1.5m) = %v", got)
	}
}

func TestSeriesSample(t *testing.T) {
	s := NewSeries("x")
	s.Add(ts(time.Minute), 5)
	s.Add(ts(3*time.Minute), 9)
	got := s.Sample(time.Minute, 4*time.Minute)
	want := []float64{5, 5, 9, 9}
	if len(got) != len(want) {
		t.Fatalf("sample len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEmptySeries(t *testing.T) {
	s := NewSeries("x")
	if s.Last() != 0 || s.Max() != 0 || s.At(ts(time.Hour)) != 0 {
		t.Fatal("empty series not all-zero")
	}
}

func TestFormatTableAligned(t *testing.T) {
	out := FormatTable([]string{"a", "long-header"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	w := len(lines[0])
	for i, l := range lines {
		if len(l) != w {
			t.Fatalf("line %d width %d, want %d:\n%s", i, len(l), w, out)
		}
	}
}

func TestSampleTable(t *testing.T) {
	a, b := NewSeries("a"), NewSeries("b")
	a.Add(ts(time.Minute), 1)
	b.Add(ts(time.Minute), 2)
	out := SampleTable(time.Minute, 2*time.Minute, a, b)
	if !strings.Contains(out, "v-min") || !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "1.0") || !strings.Contains(out, "2.0") {
		t.Fatalf("missing minute marks:\n%s", out)
	}
}

func TestSeriesConcurrentAdd(t *testing.T) {
	s := NewSeries("x")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			s.Add(ts(time.Duration(i)*time.Millisecond), float64(i))
		}
	}()
	for i := 0; i < 1000; i++ {
		s.At(ts(time.Duration(i) * time.Millisecond))
		s.Len()
	}
	<-done
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestAtOKDistinguishesMissingFromZero(t *testing.T) {
	s := NewSeries("x")
	if _, ok := s.AtOK(ts(time.Minute)); ok {
		t.Fatal("empty series reported an observation")
	}
	s.Add(ts(time.Minute), 0)
	if v, ok := s.AtOK(ts(30 * time.Second)); ok || v != 0 {
		t.Fatalf("before first observation: %v, %v", v, ok)
	}
	if v, ok := s.AtOK(ts(2 * time.Minute)); !ok || v != 0 {
		t.Fatalf("observed zero: %v, %v", v, ok)
	}
}

func TestSampleTableRendersMissingAsDash(t *testing.T) {
	a := NewSeries("a")
	a.Add(ts(2*time.Minute), 7)
	out := SampleTable(time.Minute, 2*time.Minute, a)
	if !strings.Contains(out, "-") || !strings.Contains(out, "7") {
		t.Fatalf("table:\n%s", out)
	}
}
