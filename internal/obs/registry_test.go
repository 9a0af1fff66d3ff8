package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("distq_engine_ops_total", L("kind", "a"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if again := r.Counter("distq_engine_ops_total", L("kind", "a")); again != c {
		t.Fatal("get-or-create returned a different counter")
	}
	other := r.Counter("distq_engine_ops_total", L("kind", "b"))
	if other == c || other.Value() != 0 {
		t.Fatal("label sets not independent")
	}

	g := r.Gauge("distq_engine_mem_bytes")
	g.Set(100)
	g.Add(-40)
	if got := g.Value(); got != 60 {
		t.Fatalf("gauge = %v, want 60", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("distq_engine_latency_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 56.05 {
		t.Fatalf("count=%d sum=%v", s.Count, s.Sum)
	}
	want := []uint64{1, 2, 1, 1} // (..0.1], (0.1..1], (1..10], (10..+Inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	// A boundary value lands in the bucket whose upper bound it equals.
	h.Observe(0.1)
	if got := h.Snapshot().Counts[0]; got != 2 {
		t.Fatalf("le=0.1 bucket after boundary observe = %d, want 2", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("distq_engine_x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind conflict")
		}
	}()
	r.Gauge("distq_engine_x_total")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Help("distq_engine_spills_total", "spill cycles executed")
	r.Counter("distq_engine_spills_total", L("kind", "local")).Add(3)
	r.Counter("distq_engine_spills_total", L("kind", "forced")).Add(1)
	r.Gauge("distq_engine_mem_bytes").Set(4096)
	h := r.Histogram("distq_engine_reloc_vseconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP distq_engine_spills_total spill cycles executed\n",
		"# TYPE distq_engine_spills_total counter\n",
		`distq_engine_spills_total{kind="forced"} 1` + "\n",
		`distq_engine_spills_total{kind="local"} 3` + "\n",
		"# TYPE distq_engine_mem_bytes gauge\ndistq_engine_mem_bytes 4096\n",
		"# TYPE distq_engine_reloc_vseconds histogram\n",
		`distq_engine_reloc_vseconds_bucket{le="1"} 1` + "\n",
		`distq_engine_reloc_vseconds_bucket{le="10"} 2` + "\n",
		`distq_engine_reloc_vseconds_bucket{le="+Inf"} 2` + "\n",
		"distq_engine_reloc_vseconds_sum 5.5\n",
		"distq_engine_reloc_vseconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Deterministic output: families sorted by name.
	if strings.Index(out, "distq_engine_mem_bytes") > strings.Index(out, "distq_engine_spills_total") {
		t.Error("families not sorted by name")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("distq_engine_esc_total", L("detail", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `detail="a\"b\\c\nd"`) {
		t.Fatalf("bad escaping: %q", b.String())
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("distq_engine_sent_total", L("type", "Data")).Add(7)
	r.Histogram("distq_engine_lat_seconds", []float64{1}).Observe(0.3)
	out := r.Export()
	if len(out) != 2 {
		t.Fatalf("export has %d series, want 2", len(out))
	}
	buf, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("export must be JSON-encodable: %v", err)
	}
	var back []MetricValue
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back[1].Name != "distq_engine_sent_total" || back[1].Value != 7 || back[1].Labels["type"] != "Data" {
		t.Fatalf("round trip = %+v", back[1])
	}
	if back[0].Name != "distq_engine_lat_seconds" || back[0].Count != 1 || len(back[0].Buckets) != 1 {
		t.Fatalf("histogram round trip = %+v", back[0])
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("distq_engine_c_total", L("w", "x")).Inc()
				r.Gauge("distq_engine_g").Add(1)
				r.Histogram("distq_engine_h_seconds", []float64{1, 2}).Observe(float64(j % 3))
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			for j := 0; j < 100; j++ {
				b.Reset()
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				r.Export()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("distq_engine_c_total", L("w", "x")).Value(); got != 8*500 {
		t.Fatalf("counter = %v, want %d", got, 8*500)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Export() != nil {
		t.Fatal("nil registry exported series")
	}
}
