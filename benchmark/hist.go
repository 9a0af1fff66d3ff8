package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a log-bucket histogram of non-negative nanosecond values:
// 64 sub-buckets per power of two, so a bucket is at most 1.6 % wide
// and add is O(1) with no allocation — cheap enough to sit in the
// application server's per-result callback.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) << histSubBits
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return (shift+1)<<histSubBits | int(v>>uint(shift))&(histSub-1)
}

// histLower is the smallest value that lands in bucket b.
func histLower(b int) uint64 {
	if b < histSub {
		return uint64(b)
	}
	shift := b>>histSubBits - 1
	return uint64(histSub|b&(histSub-1)) << uint(shift)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, interpolated
// linearly inside the bucket that holds it (0 on an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := float64(histLower(b)), float64(histLower(b+1))
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(histLower(histBuckets - 1))
}

// windows keeps one histogram per second of the run. A whole-run p99
// is set by a single transient stall and varied ±15 % between
// identical runs; the median over windows of each window's quantile
// varied ±2 %.
type windows struct {
	start time.Time
	w     []hist
}

func newWindows(start time.Time, seconds float64) *windows {
	// A few spare windows hold what arrives while the run drains.
	return &windows{start: start, w: make([]hist, int(seconds)+4)}
}

func (w *windows) add(at time.Time, d time.Duration) {
	i := int(at.Sub(w.start) / time.Second)
	if i < 0 {
		i = 0
	}
	if i >= len(w.w) {
		i = len(w.w) - 1
	}
	w.w[i].add(d)
}

// medianQuantile returns the median over windows of each window's
// q-quantile, in milliseconds, with the number of windows and samples
// it rests on. Windows with fewer than minSamples (the partial first
// and last ones) are left out.
func (w *windows) medianQuantile(q float64, minSamples uint64) (ms float64, used int, samples uint64) {
	var qs []float64
	for i := range w.w {
		if w.w[i].n >= minSamples {
			qs = append(qs, w.w[i].quantile(q)/1e6)
			samples += w.w[i].n
		}
	}
	return median(qs), len(qs), samples
}

// median returns the middle value (mean of the two middle values for an
// even count, 0 for none). It sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileOf returns the q-quantile of v by nearest rank (0 for none).
// It sorts a copy.
func quantileOf(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
