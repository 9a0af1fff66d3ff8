// Package stats records what the paper's figures plot: per-node memory
// usage over time and cumulative result output over time (throughput).
// Series are virtual-time indexed and sampled onto fixed grids for the
// experiment reports. Adaptations are counted by the nodes' obs metrics
// and narrated by their spans and logs, not here.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Point is one observation of a series.
type Point struct {
	T vclock.Time
	V float64
}

// Series is a concurrency-safe, append-only virtual-time series.
type Series struct {
	name string
	mu   sync.Mutex
	pts  []Point
}

// NewSeries returns an empty series with the given display name.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name reports the series' display name.
func (s *Series) Name() string { return s.name }

// Add appends one observation. Observations should arrive in
// non-decreasing time order; Add keeps the series sorted regardless.
func (s *Series) Add(t vclock.Time, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.pts); n > 0 && s.pts[n-1].T > t {
		// Rare out-of-order report (e.g. cross-node skew): insert.
		i := sort.Search(n, func(i int) bool { return s.pts[i].T > t })
		s.pts = append(s.pts, Point{})
		copy(s.pts[i+1:], s.pts[i:])
		s.pts[i] = Point{T: t, V: v}
		return
	}
	s.pts = append(s.pts, Point{T: t, V: v})
}

// Points returns a copy of all observations.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
	return out
}

// Len reports the number of observations.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pts)
}

// At returns the last observation at or before t (last observation
// carried forward), or 0 if none exists.
func (s *Series) At(t vclock.Time) float64 {
	v, _ := s.AtOK(t)
	return v
}

// AtOK is At distinguishing "no observation yet" (ok = false) from an
// observed value of 0.
func (s *Series) AtOK(t vclock.Time) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.pts[i-1].V, true
}

// Last returns the final observation, or 0 for an empty series.
func (s *Series) Last() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pts) == 0 {
		return 0
	}
	return s.pts[len(s.pts)-1].V
}

// Max returns the maximum observed value (0 for an empty series).
func (s *Series) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m float64
	for _, p := range s.pts {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Sample evaluates the series on a fixed grid: one value per step from
// step to until inclusive, carrying the last observation forward.
func (s *Series) Sample(step, until time.Duration) []float64 {
	var out []float64
	for t := step; t <= until; t += step {
		out = append(out, s.At(vclock.Time(t)))
	}
	return out
}

// FormatTable renders an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// SampleTable renders several series on a shared virtual-minute grid:
// the first column is the minute mark, one column per series. Grid
// points before a series' first observation render as "-" rather than a
// fabricated 0.
func SampleTable(step, until time.Duration, series ...*Series) string {
	header := []string{"v-min"}
	for _, s := range series {
		header = append(header, s.Name())
	}
	var rows [][]string
	for t := step; t <= until; t += step {
		row := []string{fmt.Sprintf("%.1f", t.Minutes())}
		for _, s := range series {
			if v, ok := s.AtOK(vclock.Time(t)); ok {
				row = append(row, fmt.Sprintf("%.0f", v))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return FormatTable(header, rows)
}
