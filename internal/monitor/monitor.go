// Package monitor exposes a node's operational state over HTTP for the
// multi-process cluster binaries: /healthz for liveness, /stats for a
// JSON snapshot (memory, output, adaptation counters, recent spans),
// /metrics for Prometheus text exposition of the node's obs.Registry,
// /logs for the structured logger's recent entries (the adaptation
// narrative), and — opt-in — the net/http/pprof profiling endpoints.
// Handlers pull from a caller-provided snapshot function, so the package
// stays independent of engine/coordinator internals.
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Snapshot is the JSON document served at /stats. Fields that do not
// apply to a node kind are simply zero.
type Snapshot struct {
	Node         string  `json:"node"`
	Kind         string  `json:"kind"`
	UptimeSec    float64 `json:"uptime_sec"`
	MemBytes     int64   `json:"mem_bytes,omitempty"`
	Groups       int     `json:"groups,omitempty"`
	Output       uint64  `json:"output,omitempty"`
	Spills       int     `json:"spills,omitempty"`
	SpilledBytes int64   `json:"spilled_bytes,omitempty"`
	Segments     int     `json:"segments,omitempty"`
	Relocations  int     `json:"relocations,omitempty"`
	ForcedSpills int     `json:"forced_spills,omitempty"`
	HTTPRequests int64   `json:"http_requests,omitempty"`
	// Membership is the coordinator's live view of every engine's
	// membership state (joining|active|draining|left|dead); only the
	// coordinator's snapshot carries it.
	Membership map[string]string `json:"membership,omitempty"`
	// ReplLagBytes is outstanding replication lag: on an engine, the
	// bytes its followers have not yet acknowledged; on the
	// coordinator, the cluster-wide sum from the latest stats reports.
	ReplLagBytes int64 `json:"repl_lag_bytes,omitempty"`
	// Promotions / Demotions count completed follower promotions and
	// stale-copy demotions (coordinator only).
	Promotions int            `json:"promotions,omitempty"`
	Demotions  int            `json:"demotions,omitempty"`
	Spans      []obs.SpanData `json:"spans,omitempty"`
}

// Config parameterizes a monitoring server.
type Config struct {
	// Addr is the HTTP listen address (":0" picks a free port).
	Addr string
	// Snapshot is called on every /stats request; it must be safe for
	// concurrent use.
	Snapshot func() Snapshot
	// Registry, when set, is served at /metrics in Prometheus text
	// format.
	Registry *obs.Registry
	// Tracer, when set, contributes its most recent spans to /stats.
	Tracer *obs.Tracer
	// RecentSpans bounds the spans embedded in /stats (default 32). A
	// request's ?limit= query parameter caps the spans of that response
	// (it lowers, never raises, this bound).
	RecentSpans int
	// Logger, when set, serves its recent entries at /logs as JSON
	// (?limit= caps the entry count).
	Logger *obs.Logger
	// EnableProfiling mounts the net/http/pprof handlers under
	// /debug/pprof/. Off by default: profiling endpoints expose stacks
	// and heap contents, so they are opt-in per node.
	EnableProfiling bool
}

// Server serves the monitoring endpoints for one node.
type Server struct {
	listener net.Listener
	srv      *http.Server
	started  time.Time
	requests atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// StartServer begins serving the monitoring endpoints described by cfg.
func StartServer(cfg Config) (*Server, error) {
	if cfg.Snapshot == nil {
		return nil, fmt.Errorf("monitor: nil snapshot function")
	}
	if cfg.RecentSpans <= 0 {
		cfg.RecentSpans = 32
	}
	l, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{listener: l, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		snap := cfg.Snapshot()
		snap.UptimeSec = time.Since(s.started).Seconds()
		snap.HTTPRequests = s.requests.Load()
		spanLimit := cfg.RecentSpans
		if n, ok := queryLimit(r); ok && n < spanLimit {
			spanLimit = n
		}
		// Recent treats n <= 0 as "all", so a ?limit=0 request ("no
		// spans, counters only") must skip the tracer entirely.
		if cfg.Tracer != nil && spanLimit > 0 {
			snap.Spans = cfg.Tracer.Recent(spanLimit)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/logs", func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if cfg.Logger == nil {
			http.Error(w, "no logger configured", http.StatusNotFound)
			return
		}
		limit := 0 // all retained entries
		if n, ok := queryLimit(r); ok {
			limit = n
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cfg.Logger.Recent(limit)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if cfg.EnableProfiling {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if cfg.Registry == nil {
			http.Error(w, "no metrics registry configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := cfg.Registry.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(l) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// queryLimit parses a request's ?limit= parameter. Non-numeric and
// negative values are ignored (ok = false) rather than erroring: a
// malformed scrape should degrade to the default bound, not fail.
func queryLimit(r *http.Request) (int, bool) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Addr reports the bound address (useful with ":0").
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Requests reports how many HTTP requests have been served.
func (s *Server) Requests() int64 { return s.requests.Load() }

// Close stops the server, letting in-flight scrapes finish (bounded).
// It is idempotent and safe to call concurrently.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			// Requests still in flight after the deadline: cut them off.
			s.closeErr = s.srv.Close()
		}
	})
	return s.closeErr
}
