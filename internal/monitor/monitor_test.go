package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

func startTestServer(t *testing.T, snap func() Snapshot) *Server {
	t.Helper()
	s, err := StartServer(Config{Addr: "127.0.0.1:0", Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealthz(t *testing.T) {
	s := startTestServer(t, func() Snapshot { return Snapshot{Node: "m1"} })
	code, body := get(t, fmt.Sprintf("http://%s/healthz", s.Addr()))
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

func TestStatsServesSnapshot(t *testing.T) {
	s := startTestServer(t, func() Snapshot {
		return Snapshot{
			Node: "m1", Kind: "engine",
			MemBytes: 12345, Output: 678, Spills: 3,
		}
	})
	code, body := get(t, fmt.Sprintf("http://%s/stats", s.Addr()))
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Node != "m1" || snap.MemBytes != 12345 || snap.Output != 678 || snap.Spills != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.UptimeSec <= 0 {
		t.Fatal("uptime not stamped")
	}
}

func TestRequestCounter(t *testing.T) {
	s := startTestServer(t, func() Snapshot { return Snapshot{} })
	get(t, fmt.Sprintf("http://%s/healthz", s.Addr()))
	get(t, fmt.Sprintf("http://%s/stats", s.Addr()))
	if s.Requests() != 2 {
		t.Fatalf("Requests = %d", s.Requests())
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := StartServer(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := StartServer(Config{Addr: "definitely not an address", Snapshot: func() Snapshot { return Snapshot{} }}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestCloseStopsServing(t *testing.T) {
	s := startTestServer(t, func() Snapshot { return Snapshot{} })
	addr := s.Addr()
	s.Close()
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("server still serving after Close")
	}
}
