package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Help("distq_engine_spills_total", "spill cycles")
	reg.Counter("distq_engine_spills_total", obs.L("kind", "local")).Add(3)
	reg.Gauge("distq_engine_mem_bytes").Set(4096)

	s, err := StartServer(Config{
		Addr:     "127.0.0.1:0",
		Snapshot: func() Snapshot { return Snapshot{Node: "m1", Kind: "engine"} },
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	code, body := get(t, fmt.Sprintf("http://%s/metrics", s.Addr()))
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE distq_engine_spills_total counter",
		`distq_engine_spills_total{kind="local"} 3`,
		"distq_engine_mem_bytes 4096",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsWithoutRegistryIs404(t *testing.T) {
	s := startTestServer(t, func() Snapshot { return Snapshot{} })
	code, _ := get(t, fmt.Sprintf("http://%s/metrics", s.Addr()))
	if code != http.StatusNotFound {
		t.Fatalf("metrics without registry: status %d", code)
	}
}

func TestStatsEmbedsSpansAndRequestCount(t *testing.T) {
	tr := obs.NewTracer(8)
	sp := tr.Start(obs.SpanRelocation, "gc", vclock.Time(10*time.Second))
	for _, step := range obs.RelocationSteps {
		sp.Step(step, vclock.Time(11*time.Second))
	}
	sp.End(vclock.Time(12 * time.Second))

	s, err := StartServer(Config{
		Addr:     "127.0.0.1:0",
		Snapshot: func() Snapshot { return Snapshot{Node: "gc", Kind: "coordinator"} },
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	_, body := get(t, fmt.Sprintf("http://%s/stats", s.Addr()))
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	got := snap.Spans[0]
	if got.Name != obs.SpanRelocation || !got.Complete || len(got.Steps) != len(obs.RelocationSteps) {
		t.Fatalf("span = %+v", got)
	}
	if snap.HTTPRequests < 1 {
		t.Fatalf("http_requests = %d", snap.HTTPRequests)
	}
}

// TestConcurrentScrapes hammers /stats and /metrics from many goroutines
// while the underlying registry and tracer keep mutating — the monitoring
// path must be race-free (run with -race).
func TestConcurrentScrapes(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(16)
	s, err := StartServer(Config{
		Addr: "127.0.0.1:0",
		Snapshot: func() Snapshot {
			return Snapshot{Node: "m1", Kind: "engine", Relocations: 1}
		},
		Registry: reg,
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	stop := make(chan struct{})
	var mutators sync.WaitGroup
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Counter("distq_engine_spills_total", obs.L("kind", "local")).Inc()
			reg.Gauge("distq_engine_mem_bytes").Set(float64(i))
			reg.Histogram("distq_engine_adapt_vseconds", obs.VirtualDurationBuckets).Observe(float64(i % 7))
			sp := tr.Start(obs.SpanSpill, "m1", vclock.Time(i)*vclock.Time(time.Millisecond))
			sp.SetAttr("kind", "local")
			sp.End(vclock.Time(i+1) * vclock.Time(time.Millisecond))
		}
	}()

	var scrapers sync.WaitGroup
	for i := 0; i < 8; i++ {
		path := "/stats"
		if i%2 == 0 {
			path = "/metrics"
		}
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for j := 0; j < 25; j++ {
				code, _ := get(t, fmt.Sprintf("http://%s%s", s.Addr(), path))
				if code != http.StatusOK {
					t.Errorf("%s status %d", path, code)
					return
				}
			}
		}(path)
	}
	scrapers.Wait()
	close(stop)
	mutators.Wait()
}

// TestCloseDuringScrapes is the shutdown-race regression test: Close runs
// concurrently with active scrapers (and with itself) without panicking
// or racing.
func TestCloseDuringScrapes(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := StartServer(Config{
		Addr:     "127.0.0.1:0",
		Snapshot: func() Snapshot { return Snapshot{Node: "m1"} },
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				// Errors are expected once the server shuts down.
				resp, err := http.Get(fmt.Sprintf("http://%s/stats", addr))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("server still serving after Close")
	}
}
