package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestSpecMatchesBenchmarkJSON keeps the code's tables and the JSON
// contract identical in both directions: same names in the same order,
// same units, directions and bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: JSON %q (%q), spec.go %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, m := range want {
			w := jsonMetric{m.Name, m.Unit, m.Better, 0}
			if bounded {
				w.Bound = m.Bound
			}
			if got[i] != w {
				t.Errorf("%s metric %d: JSON %+v, spec.go %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
}

// TestSmoke runs all four workloads at about 1/50 size, untraced and
// traced, and checks that each prints exactly the metric names of
// BENCHMARK.json and passes its own exactness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four clusters over TCP")
	}
	b := loadBenchmarkJSON(t)
	names := func(ms []jsonMetric) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		sort.Strings(out)
		return out
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			e := &env{seed: 1, seconds: 0.4, floodTuples: 80_000, outDir: t.TempDir()}
			var stdout, stderr bytes.Buffer
			if code := runOne(w, e, trace, &stdout, &stderr); code != 0 {
				t.Fatalf("%s (trace=%v) exited %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v\n%s", w.Name, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace=%v): correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := names(b.EndToEnd)
			if trace {
				want = names(b.PerLayer)
				if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s (trace=%v) printed metrics\n  %v\nBENCHMARK.json lists\n  %v", w.Name, trace, got, want)
			}
			if !trace {
				for name, m := range res.Metrics {
					// At this size two of the inputs join nothing at all.
					if m.Value <= 0 && name != "runtime_results_per_tuple" {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}
