package engine

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/tuple"
)

// spilledCleanupRig is a materializing engine holding two spilled
// generations and a resident third one for eight keys over its four
// partition groups, so a cleanup merges several groups and emits.
func spilledCleanupRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, func(c *Config) { c.Materialize = true })
	seq := uint64(0)
	for gen := 0; gen < 3; gen++ {
		var batch []tuple.Tuple
		for key := uint64(0); key < 8; key++ {
			batch = append(batch, mk(0, key, seq), mk(1, key, seq+1))
			seq += 2
		}
		if err := r.gen.ep.Send("m1", dataMsg(t, batch...)); err != nil {
			t.Fatal(err)
		}
		if gen < 2 {
			if err := r.gc.ep.Send("m1", proto.ForceSpill{Amount: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			expect[proto.SpillDone](t, r.gc)
		}
	}
	return r
}

// cleanupResults sends StartCleanup and reads the application server's
// inbox in order up to the CleanupDone, counting the cleanup-phase
// results shipped ahead of it.
func cleanupResults(t *testing.T, r *rig) (proto.CleanupDone, int) {
	t.Helper()
	if err := r.app.ep.Send("m1", proto.StartCleanup{}); err != nil {
		t.Fatal(err)
	}
	results := 0
	timeout := time.After(5 * time.Second)
	for {
		select {
		case m := <-r.app.msgs:
			switch msg := m.msg.(type) {
			case proto.CleanupDone:
				return msg, results
			case proto.ResultData:
				if msg.Phase != proto.PhaseCleanup {
					continue
				}
				rd, err := tuple.ReadResults(msg.Payload)
				if err != nil {
					t.Fatal(err)
				}
				var res tuple.Result
				for rd.Next(&res) {
					results++
				}
			}
		case <-timeout:
			t.Fatal("timed out waiting for CleanupDone")
		}
	}
}

// One StartCleanup over a spilled store yields one complete cleanup span
// whose groups, segments and results are the CleanupDone the engine
// sends, and the cleanup results counter moves by the same results.
func TestEngineCleanupSpanMatchesReport(t *testing.T) {
	r := spilledCleanupRig(t)
	done, shipped := cleanupResults(t, r)
	if done.Error != "" || done.Groups < 2 || done.Results == 0 {
		t.Fatalf("cleanup done = %+v, want several groups merged and results", done)
	}
	if shipped != int(done.Results) {
		t.Fatalf("shipped %d cleanup results, report says %d", shipped, done.Results)
	}
	var spans []obs.SpanData
	for _, s := range r.engine.Tracer().Spans() {
		if s.Name == obs.SpanCleanup {
			spans = append(spans, s)
		}
	}
	if len(spans) != 1 {
		t.Fatalf("%d cleanup spans, want 1", len(spans))
	}
	s := spans[0]
	if !s.Complete || s.Node != "m1" || s.Attrs["status"] != obs.StatusOK {
		t.Fatalf("cleanup span not complete and ok: %+v", s)
	}
	for attr, want := range map[string]string{
		"groups":   strconv.Itoa(done.Groups),
		"segments": strconv.Itoa(done.Segments),
		"results":  strconv.FormatUint(done.Results, 10),
	} {
		if got := s.Attrs[attr]; got != want {
			t.Errorf("span attr %s = %q, CleanupDone says %s", attr, got, want)
		}
	}
	if got := r.engine.Registry().Counter("distq_engine_cleanup_results_total").Value(); got != float64(done.Results) {
		t.Errorf("distq_engine_cleanup_results_total = %v, want %d", got, done.Results)
	}
}

// A repeated StartCleanup is answered with the first run's report and
// ships no result again: the cleanup does not run twice.
func TestEngineRepeatedCleanupResendsReport(t *testing.T) {
	r := spilledCleanupRig(t)
	first, shipped := cleanupResults(t, r)
	if first.Results == 0 || shipped != int(first.Results) {
		t.Fatalf("first cleanup %+v shipped %d results", first, shipped)
	}
	again, reshipped := cleanupResults(t, r)
	if again != first {
		t.Fatalf("second report %+v, want the first %+v", again, first)
	}
	if reshipped != 0 {
		t.Fatalf("second StartCleanup shipped %d results again", reshipped)
	}
	spans := 0
	for _, s := range r.engine.Tracer().Spans() {
		if s.Name == obs.SpanCleanup {
			spans++
		}
	}
	if spans != 1 {
		t.Fatalf("%d cleanup spans, want 1", spans)
	}
	if got := r.engine.Registry().Counter("distq_engine_cleanup_results_total").Value(); got != float64(first.Results) {
		t.Fatalf("distq_engine_cleanup_results_total = %v after two StartCleanups, want %d", got, first.Results)
	}
}
