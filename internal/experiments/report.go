package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// RunRecord is the machine-readable outcome of one cluster run inside a
// figure: its headline counters plus every recorded span and metric.
// Reports embed one record per labeled run for the JSONL run report.
type RunRecord struct {
	Label         string            `json:"label"`
	Generated     uint64            `json:"generated"`
	RuntimeOutput uint64            `json:"runtime_output"`
	Relocations   int               `json:"relocations"`
	ForcedSpills  int               `json:"forced_spills"`
	LocalSpills   int               `json:"local_spills"`
	Spans         []obs.SpanData    `json:"spans,omitempty"`
	Metrics       []obs.MetricValue `json:"metrics,omitempty"`
}

// AddRun records one labeled cluster run in the report.
func (r *Report) AddRun(label string, res *cluster.Result) {
	if res == nil {
		return
	}
	rec := RunRecord{
		Label:         label,
		Generated:     res.Generated,
		RuntimeOutput: res.RuntimeOutput,
		Relocations:   res.Relocations,
		ForcedSpills:  forcedSpills(res),
		Spans:         res.Spans,
		Metrics:       res.Metrics,
	}
	for _, n := range res.LocalSpills {
		rec.LocalSpills += n
	}
	r.Runs = append(r.Runs, rec)
}

// reportLine is the JSONL header line for one figure.
type reportLine struct {
	Type   string   `json:"type"` // "report"
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Passed bool     `json:"passed"`
	Claims []Claim  `json:"claims,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

// runLine is one cluster run in the JSONL report.
type runLine struct {
	Type   string `json:"type"` // "run"
	Figure string `json:"figure"`
	RunRecord
}

// WriteRunReport writes reports as JSON Lines: one "report" line per
// figure (id, title, claims) followed by one "run" line per recorded
// cluster run (counters, spans, metrics).
func WriteRunReport(w io.Writer, reports ...*Report) error {
	enc := json.NewEncoder(w)
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		if err := enc.Encode(reportLine{
			Type: "report", ID: rep.ID, Title: rep.Title,
			Passed: rep.Passed(), Claims: rep.Claims, Notes: rep.Notes,
		}); err != nil {
			return err
		}
		for _, run := range rep.Runs {
			if err := enc.Encode(runLine{Type: "run", Figure: rep.ID, RunRecord: run}); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteRunReportFile writes the JSONL run report to path.
func WriteRunReportFile(path string, reports ...*Report) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("run report: %w", err)
	}
	if err := WriteRunReport(f, reports...); err != nil {
		f.Close()
		return fmt.Errorf("run report: %w", err)
	}
	return f.Close()
}
