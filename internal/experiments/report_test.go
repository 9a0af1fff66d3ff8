package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunReportRecordsCompleteRelocationSpan is the observability
// acceptance test: one quick alternating-skew run at θ_r = 0.9 must
// yield at least one complete coordinator relocation span carrying all
// eight protocol steps with monotone (non-decreasing) virtual-time
// boundaries, and the span must survive the JSONL round trip.
func TestRunReportRecordsCompleteRelocationSpan(t *testing.T) {
	o := quickOpts()
	res, err := runRelocationThreshold(o, o.scaleDur(45*time.Minute), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relocations == 0 {
		t.Fatal("quick run produced no relocations")
	}

	var full *obs.SpanData
	for _, s := range res.Spans {
		if s.Name == obs.SpanRelocation && s.Complete && s.Attrs["status"] == obs.StatusOK {
			s := s
			full = &s
			break
		}
	}
	if full == nil {
		t.Fatalf("no complete relocation span among %d spans", len(res.Spans))
	}
	if len(full.Steps) != len(obs.RelocationSteps) {
		t.Fatalf("relocation span has %d steps, want %d: %+v", len(full.Steps), len(obs.RelocationSteps), full.Steps)
	}
	prev := full.Start
	for i, step := range full.Steps {
		if step.Name != obs.RelocationSteps[i] {
			t.Fatalf("step %d = %q, want %q", i, step.Name, obs.RelocationSteps[i])
		}
		if step.VT < prev {
			t.Fatalf("step %q virtual time %v precedes %v", step.Name, step.VT, prev)
		}
		prev = step.VT
	}
	if full.End < prev {
		t.Fatalf("span end %v precedes last step %v", full.End, prev)
	}

	// The coordinator's registry must carry the relocation counters and
	// the duration histogram, tagged with the node label by the merge.
	var sawCounter, sawHist bool
	for _, mv := range res.Metrics {
		switch mv.Name {
		case "distq_coordinator_relocations_total":
			sawCounter = mv.Value >= float64(res.Relocations) && mv.Labels["node"] == "gc"
		case "distq_coordinator_relocation_duration_vseconds":
			sawHist = mv.Count >= uint64(res.Relocations)
		}
	}
	if !sawCounter || !sawHist {
		t.Fatalf("merged metrics missing relocation counter/histogram (counter=%v hist=%v)", sawCounter, sawHist)
	}

	// JSONL round trip: the run line must carry the same span.
	rep := &Report{ID: "Figure 9", Title: "test"}
	rep.AddRun("theta=90%", res)
	var buf bytes.Buffer
	if err := WriteRunReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var lines []map[string]json.RawMessage
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, line)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want report + run", len(lines))
	}
	var run struct {
		Type        string         `json:"type"`
		Figure      string         `json:"figure"`
		Relocations int            `json:"relocations"`
		Spans       []obs.SpanData `json:"spans"`
	}
	if err := json.Unmarshal(jsonLine(t, lines[1]), &run); err != nil {
		t.Fatal(err)
	}
	if run.Type != "run" || run.Figure != "Figure 9" || run.Relocations != res.Relocations {
		t.Fatalf("run line = %+v", run)
	}
	var found bool
	for _, s := range run.Spans {
		if s.ID == full.ID && s.Node == full.Node && s.Name == obs.SpanRelocation && len(s.Steps) == len(obs.RelocationSteps) {
			found = true
		}
	}
	if !found {
		t.Fatal("decoded run report lost the complete relocation span")
	}
}

// jsonLine re-marshals a parsed line for typed decoding.
func jsonLine(t *testing.T, m map[string]json.RawMessage) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
