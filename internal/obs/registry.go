// Package obs is the system's observability layer: a concurrency-safe
// metrics registry (counters, gauges, histograms) with Prometheus
// text-format exposition, and a span tracer recording each adaptation —
// relocations with their 8 protocol steps, spills, cleanups — stamped
// with both virtual and wall time.
//
// Every node (coordinator, engine, generator, application server) owns
// one Registry and one Tracer. Metric names follow the scheme
// distq_<node_kind>_<name>, e.g. distq_engine_spills_total; series of
// one name are distinguished by labels. Histograms are unit-agnostic:
// transport latencies observe wall seconds, adaptation durations observe
// virtual seconds (suffix _vseconds).
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension.
type Label struct {
	Key   string
	Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Default bucket layouts.
var (
	// LatencyBuckets suits wall-clock send/IO latencies (seconds).
	LatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2.5, 10}
	// VirtualDurationBuckets suits adaptation durations in virtual
	// seconds (relocations span virtual seconds to minutes).
	VirtualDurationBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300}
)

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reports the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reports the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// ObserveDuration records a duration in seconds. For virtual durations
// the caller passes the virtual time.Duration (vclock durations convert
// with Sub); the unit convention lives in the metric name.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, +Inf excluded
	Counts []uint64  // per-bucket (non-cumulative), len(Bounds)+1
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
	return s
}

// series is one labeled instance of a metric family.
type series struct {
	labels []Label // sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series of one metric name.
type family struct {
	name    string
	kind    metricKind
	help    string
	buckets []float64
	series  map[string]*series // keyed by canonical label rendering
}

// Registry holds a node's metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use. Get-or-create
// lookups take a lock, so hot paths should cache the returned metric.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Help sets the HELP string emitted for a metric name. Like every
// metric name, it must follow the scheme.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
	} else {
		checkMetric(name, kindGauge)
		r.families[name] = &family{name: name, help: help, series: make(map[string]*series)}
	}
}

// lookup get-or-creates the series for (name, labels) with the given
// kind. It panics on a kind conflict and, creating a series, on a name
// off the scheme: metric names are compile-time constants, so either is
// a programming error.
func (r *Registry) lookup(name string, kind metricKind, buckets []float64, labels []Label) *series {
	canon := canonicalLabels(labels)
	key := renderLabels(canon)

	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if s, ok := f.series[key]; ok {
			r.mu.RUnlock()
			if f.kind != kind {
				panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
			}
			return s
		}
	}
	r.mu.RUnlock()

	// Only a new series gets here: its name is checked once.
	checkMetric(name, kind)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	} else if len(f.series) == 0 && f.kind != kind {
		// Created by Help before first use: adopt the kind.
		f.kind = kind
		f.buckets = buckets
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: canon}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			b := f.buckets
			s.h = &Histogram{bounds: append([]float64(nil), b...), counts: make([]uint64, len(b)+1)}
		}
		f.series[key] = s
	}
	return s
}

// Counter get-or-creates a counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, nil, labels).c
}

// Gauge get-or-creates a gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, nil, labels).g
}

// Histogram get-or-creates a histogram. The bucket layout of the first
// creation wins for the whole family.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	return r.lookup(name, kindHistogram, buckets, labels).h
}

// canonicalLabels copies and sorts labels by key.
func canonicalLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// renderLabels formats {k="v",...} (empty string for no labels).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// renderLabelsWith appends one extra pair (used for histogram le labels).
func renderLabelsWith(labels []Label, key, value string) string {
	all := append(append([]Label(nil), labels...), Label{Key: key, Value: value})
	return renderLabels(all)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name then label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", name, k, formatFloat(s.c.Value()))
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", name, k, formatFloat(s.g.Value()))
			case kindHistogram:
				snap := s.h.Snapshot()
				var cum uint64
				for i, ub := range snap.Bounds {
					cum += snap.Counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", name, renderLabelsWith(s.labels, "le", formatFloat(ub)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", name, renderLabelsWith(s.labels, "le", "+Inf"), snap.Count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, k, formatFloat(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", name, k, snap.Count)
			}
		}
	}
	r.mu.RUnlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// Bucket is one histogram bucket in an export. The implicit +Inf bucket
// is omitted (it would not survive JSON encoding); its count is the
// series Count minus the finite buckets' sum.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"` // non-cumulative
}

// MetricValue is one exported series (JSONL run reports).
type MetricValue struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`           // counter/gauge value; histogram sum
	Count   uint64            `json:"count,omitempty"` // histogram observation count
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Export snapshots every series for machine-readable reports, sorted by
// name then label set.
func (r *Registry) Export() []MetricValue {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []MetricValue
	for _, f := range r.families {
		for _, s := range f.series {
			mv := MetricValue{Name: f.name, Kind: f.kind.String()}
			if len(s.labels) > 0 {
				mv.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					mv.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case kindCounter:
				mv.Value = s.c.Value()
			case kindGauge:
				mv.Value = s.g.Value()
			case kindHistogram:
				snap := s.h.Snapshot()
				mv.Value = snap.Sum
				mv.Count = snap.Count
				for i, ub := range snap.Bounds {
					mv.Buckets = append(mv.Buckets, Bucket{UpperBound: ub, Count: snap.Counts[i]})
				}
			}
			out = append(out, mv)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return fmt.Sprint(out[i].Labels) < fmt.Sprint(out[j].Labels)
	})
	return out
}

// Sum adds up the current values of every counter or gauge series of
// metric name whose labels include each of match: one engine's spills
// of both kinds, read while it runs.
func (r *Registry) Sum(name string, match ...Label) float64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	var sum float64
next:
	for _, s := range f.series {
		for _, l := range match {
			if !slices.Contains(s.labels, l) {
				continue next
			}
		}
		sum += s.c.Value() + s.g.Value()
	}
	return sum
}
