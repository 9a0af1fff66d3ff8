package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// manySpansTracer records n completed spill spans.
func manySpansTracer(n int) *obs.Tracer {
	tr := obs.NewTracer(2 * n)
	for i := 0; i < n; i++ {
		sp := tr.Start(obs.SpanSpill, "m1", vclock.Time(i)*vclock.Time(time.Second))
		sp.End(vclock.Time(i+1) * vclock.Time(time.Second))
	}
	return tr
}

func statsSnap(t *testing.T, url string) Snapshot {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestStatsDefaultBoundKeepsNewest(t *testing.T) {
	s, err := StartServer(Config{
		Addr:     "127.0.0.1:0",
		Snapshot: func() Snapshot { return Snapshot{Node: "m1"} },
		Tracer:   manySpansTracer(100),
		// RecentSpans left zero: default bound (32) applies.
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	snap := statsSnap(t, fmt.Sprintf("http://%s/stats", s.Addr()))
	if len(snap.Spans) != 32 {
		t.Fatalf("spans=%d, want 32", len(snap.Spans))
	}
	// Bounded payloads keep the newest entries, not the oldest.
	if last := snap.Spans[len(snap.Spans)-1]; last.Start != vclock.Time(99*time.Second) {
		t.Fatalf("newest span starts at %v", last.Start)
	}
}

func TestStatsLimitParamLowersBound(t *testing.T) {
	s, err := StartServer(Config{
		Addr:        "127.0.0.1:0",
		Snapshot:    func() Snapshot { return Snapshot{Node: "m1"} },
		Tracer:      manySpansTracer(50),
		RecentSpans: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := fmt.Sprintf("http://%s/stats", s.Addr())

	snap := statsSnap(t, base+"?limit=5")
	if len(snap.Spans) != 5 {
		t.Fatalf("limit=5: spans=%d", len(snap.Spans))
	}
	if snap.Spans[4].Start != vclock.Time(49*time.Second) {
		t.Fatalf("limit window not newest: span %v", snap.Spans[4].Start)
	}

	// limit lowers the configured bound but never raises it.
	snap = statsSnap(t, base+"?limit=1000")
	if len(snap.Spans) != 40 {
		t.Fatalf("limit=1000 raised bound: spans=%d", len(snap.Spans))
	}
	// Malformed and negative limits degrade to the configured bound.
	for _, q := range []string{"?limit=abc", "?limit=-3", ""} {
		if snap = statsSnap(t, base+q); len(snap.Spans) != 40 {
			t.Fatalf("limit %q: spans=%d, want 40", q, len(snap.Spans))
		}
	}
	// limit=0 is a valid request for "no spans".
	if snap = statsSnap(t, base+"?limit=0"); len(snap.Spans) != 0 {
		t.Fatalf("limit=0: spans=%d", len(snap.Spans))
	}
}

func TestLogsEndpoint(t *testing.T) {
	lg := obs.NewLogger(obs.LoggerConfig{Node: "m1", Kind: "engine"})
	for i := 0; i < 10; i++ {
		lg.Info("spill_complete", obs.FInt("i", int64(i)))
	}
	s, err := StartServer(Config{
		Addr:     "127.0.0.1:0",
		Snapshot: func() Snapshot { return Snapshot{Node: "m1"} },
		Logger:   lg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := fmt.Sprintf("http://%s/logs", s.Addr())

	code, body := get(t, base)
	if code != http.StatusOK {
		t.Fatalf("logs status %d", code)
	}
	var entries []obs.LogEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 || entries[0].Event != "spill_complete" || entries[0].Node != "m1" {
		t.Fatalf("entries = %+v", entries)
	}

	_, body = get(t, base+"?limit=3")
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[2].Attrs != "i=9" {
		t.Fatalf("limited entries = %+v", entries)
	}
}

func TestLogsWithoutLoggerIs404(t *testing.T) {
	s := startTestServer(t, func() Snapshot { return Snapshot{} })
	code, _ := get(t, fmt.Sprintf("http://%s/logs", s.Addr()))
	if code != http.StatusNotFound {
		t.Fatalf("logs without logger: status %d", code)
	}
}

func TestPprofOptIn(t *testing.T) {
	start := func(enabled bool) *Server {
		s, err := StartServer(Config{
			Addr:            "127.0.0.1:0",
			Snapshot:        func() Snapshot { return Snapshot{} },
			EnableProfiling: enabled,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	on := start(true)
	if code, _ := get(t, fmt.Sprintf("http://%s/debug/pprof/", on.Addr())); code != http.StatusOK {
		t.Fatalf("pprof enabled: status %d", code)
	}
	off := start(false)
	if code, _ := get(t, fmt.Sprintf("http://%s/debug/pprof/", off.Addr())); code != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d", code)
	}
}
