package engine

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/proto"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// A windowed engine whose input lags its clock by more than a window —
// a feeder that fell behind its schedule stamps each tuple with the time
// it was due — still produces exactly the windowed results: a stats
// tick between partners purges only what no later arrival can join, so
// runtime and cleanup results together equal join.WindowedOracle, with
// no duplicates, and the purge still bounds the state.
func TestPurgeKeepsTuplesLaggingInputsCanJoin(t *testing.T) {
	const window = 10 * time.Second
	r := newRig(t, func(c *Config) {
		c.Materialize = true
		c.Window = window
	})
	r.engine.clock.(*vclock.Manual).Advance(time.Hour)

	rng := rand.New(rand.NewSource(11))
	var history []tuple.Tuple
	var inserted int64
	for i := 0; i < 240; i++ {
		tp := tuple.Tuple{
			Stream: uint8(rng.Intn(2)), Key: uint64(rng.Intn(4)), Seq: uint64(i + 1),
			Ts: vclock.Time(time.Duration(i) * time.Second), Payload: make([]byte, 8),
		}
		history = append(history, tp)
		inserted += tp.MemSize()
		if err := r.gen.ep.Send("m1", dataMsg(t, tp)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats}); err != nil {
		t.Fatal(err)
	}
	var report proto.StatsReport
	for i := 0; i < 240/5+1; i++ {
		report = expect[proto.StatsReport](t, r.gc)
	}
	if report.MemBytes*4 > inserted {
		t.Fatalf("the windowed engine holds %d of the %d bytes it was fed: the purge kept expired tuples", report.MemBytes, inserted)
	}

	if err := r.app.ep.Send("m1", proto.StartCleanup{}); err != nil {
		t.Fatal(err)
	}
	runtime, cleanup := tuple.NewResultSet(), tuple.NewResultSet()
	timeout := time.After(5 * time.Second)
	for done := false; !done; {
		select {
		case m := <-r.app.msgs:
			switch msg := m.msg.(type) {
			case proto.CleanupDone:
				if msg.Error != "" {
					t.Fatalf("cleanup failed: %s", msg.Error)
				}
				done = true
			case proto.ResultData:
				rd, err := tuple.ReadResults(msg.Payload)
				if err != nil {
					t.Fatal(err)
				}
				set := runtime
				if msg.Phase == proto.PhaseCleanup {
					set = cleanup
				}
				var res tuple.Result
				for rd.Next(&res) {
					if runtime.Contains(res) || cleanup.Contains(res) {
						t.Fatalf("result %+v produced twice", res)
					}
					set.Add(res)
				}
			}
		case <-timeout:
			t.Fatal("timed out waiting for CleanupDone")
		}
	}
	oracle := join.WindowedOracle(2, history, window)
	all := runtime.Union(cleanup)
	if missing, extra := oracle.Diff(all), all.Diff(oracle); len(missing) > 0 || len(extra) > 0 {
		t.Fatalf("runtime %d + cleanup %d results against the windowed oracle's %d: %d missing, %d extra",
			runtime.Len(), cleanup.Len(), oracle.Len(), len(missing), len(extra))
	}
}
