package engine

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/vclock"
)

// statsReports counts the StatsReports that reach p until it has been
// quiet for 50 ms.
func statsReports(p *peer) int {
	n := 0
	for {
		select {
		case m := <-p.msgs:
			if _, ok := m.msg.(proto.StatsReport); ok {
				n++
			}
		case <-time.After(50 * time.Millisecond):
			return n
		}
	}
}

// The sr_timer is a chain of one-shot timers, each armed by the handler
// of the tick before it: k stats periods send exactly k StatsReports, a
// Tick from another node or a stray one of its own sends one more
// without doubling the rate, and a crashed engine's chain ends.
func TestStatsTickChain(t *testing.T) {
	const period = time.Second
	r := newRig(t, func(c *Config) { c.StatsInterval = period })
	clock := r.engine.clock.(*vclock.Manual)
	periods := func(k int) int {
		n := 0
		for i := 0; i < k; i++ {
			clock.Advance(period)
			n += statsReports(r.gc)
		}
		return n
	}
	if got := periods(5); got != 5 {
		t.Fatalf("5 stats periods sent %d reports, want 5", got)
	}
	if err := r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats}); err != nil {
		t.Fatal(err)
	}
	if got := statsReports(r.gc); got != 1 {
		t.Fatalf("a tick from another node sent %d reports, want 1", got)
	}
	if got := periods(5); got != 5 {
		t.Fatalf("5 stats periods after a tick from another node sent %d reports, want 5", got)
	}
	// A stray self-addressed tick (a crashed life's last timer reaching
	// its restarted successor) arms a second timer, which merges into
	// the chain: each re-arm starts from the latest deadline.
	if err := r.engine.ep.Send("m1", proto.Tick{Kind: proto.TickStats}); err != nil {
		t.Fatal(err)
	}
	if got := statsReports(r.gc); got != 1 {
		t.Fatalf("a stray self-addressed tick sent %d reports, want 1", got)
	}
	if got := periods(5); got != 5 {
		t.Fatalf("5 stats periods after a stray self-addressed tick sent %d reports, want 5", got)
	}
	r.engine.Crash()
	if got := periods(3); got != 0 {
		t.Fatalf("a crashed engine sent %d reports over 3 stats periods, want none", got)
	}
}
