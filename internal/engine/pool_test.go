package engine

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// TestNewRejectsInvalidConfig covers the validation added to New: a
// join with fewer than 2 inputs or a zero-modulus partition function
// must be rejected up front instead of panicking deep inside the hot
// path (modulus by zero).
func TestNewRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no inputs", Config{Node: "m1", Inputs: 0, Partitions: 4}},
		{"one input", Config{Node: "m1", Inputs: 1, Partitions: 4}},
		{"no partitions", Config{Node: "m1", Inputs: 2, Partitions: 0}},
		{"negative partitions", Config{Node: "m1", Inputs: 2, Partitions: -3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg, vclock.NewManual()); err == nil {
				t.Fatalf("New(%+v) succeeded, want error", tc.cfg)
			}
		})
	}
}

// TestForceSpillDuringRelocationKeepsRelocateMode: a spill must not
// clobber RelocateMode back to normal — that would re-enable the local
// ss_timer spill path while a state move is in flight. Since one
// foreground run at a time, the only ForceSpill that can reach an engine
// mid-relocation is a late one of an earlier run: it is dropped — no
// spill, no SpillDone — and the mode is kept.
func TestForceSpillDuringRelocationKeepsRelocateMode(t *testing.T) {
	r := newRig(t, nil)
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 0, 1), mk(1, 0, 2), mk(0, 1, 3), mk(1, 1, 4)))

	// Step 1-2 of the relocation protocol: the engine enters relocate
	// mode and offers partitions.
	r.gc.ep.Send("m1", proto.CptV{Epoch: 5, Amount: 1 << 20, Receiver: "m2"})
	ptv := expect[proto.PtV](t, r.gc)
	if len(ptv.Partitions) == 0 {
		t.Fatal("sender offered no partitions")
	}

	// The forced spill of run 3 lands mid-relocation.
	r.gc.ep.Send("m1", proto.ForceSpill{Amount: 1, Seq: 3})
	r.gc.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
	for _, m := range until[proto.StatsReport](t, r.gc) {
		if _, ok := m.(proto.SpillDone); ok {
			t.Fatal("a stale ForceSpill was answered")
		}
	}
	if n := r.engine.SpillManager().Count(); n != 0 {
		t.Fatalf("a stale ForceSpill spilled (%d spills)", n)
	}
	if got := r.engine.mode(); got != core.RelocateMode {
		t.Fatalf("mode after a stale ForceSpill during relocation = %v, want RelocateMode", got)
	}

	// Completing the relocation (here: failing it) lands back in normal mode.
	r.gc.ep.Send("m1", proto.SendStates{Epoch: 5, Partitions: ptv.Partitions, Receiver: "m-ghost"})
	r.drain(t)
	if got := r.engine.mode(); got != core.NormalMode {
		t.Fatalf("mode after relocation finished = %v, want NormalMode", got)
	}
}

// TestReportResultsRetriesAfterSendFailure is the result-accounting
// regression test: when the ResultCount delivery fails, the reported
// cursor must not advance — the delta rides the next successful
// sr_timer report instead of vanishing.
func TestReportResultsRetriesAfterSendFailure(t *testing.T) {
	net := transport.NewInproc()
	t.Cleanup(func() { net.Close() })
	cfg := Config{
		Node: "m1", Coordinator: "gc", AppServer: "app",
		Inputs: 2, Partitions: 4, Store: spill.NewMemStore(),
		StatsInterval: time.Hour, SpillCheckInterval: time.Hour,
	}
	e := mustNew(t, cfg, vclock.NewManual())
	if err := e.Attach(net); err != nil {
		t.Fatal(err)
	}
	gc := newPeer(t, net, "gc")
	gen := newPeer(t, net, "gen")
	// Deliberately no "app" node yet: result reports cannot be delivered.
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	stopOnCleanup(t, e)
	expect[proto.Hello](t, gc)

	gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2), mk(0, 2, 3), mk(1, 2, 4)))
	gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats}) // report fails: app unreachable
	// Fence with a marker rather than Drain: Drain's own stats report
	// also fails while the app server is down.
	gen.ep.Send("m1", proto.PauseMarker{Epoch: 42})
	expect[proto.MarkerAck](t, gc)
	want := e.Op().Output()
	if want == 0 {
		t.Fatal("no results produced")
	}

	// The application server comes up; the next report must carry the
	// full unreported delta, not just results produced since the failure.
	app := newPeer(t, net, "app")
	gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
	rc := expect[proto.ResultCount](t, app)
	if rc.Delta != want {
		t.Fatalf("ResultCount.Delta = %d after recovered send, want %d", rc.Delta, want)
	}

	// And the cursor advanced: a further tick with no new results sends
	// no second count.
	gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
	gen.ep.Send("m1", proto.Drain{Token: 2})
	expect[proto.DrainAck](t, gen)
	select {
	case m := <-app.msgs:
		if _, ok := m.msg.(proto.ResultCount); ok {
			t.Fatalf("duplicate ResultCount after cursor advanced: %+v", m.msg)
		}
	default:
	}
}

// TestParallelEngineMatchesSerialOutput drives identical input through
// a serial and a 4-shard engine, interleaving a forced spill (a
// quiesce barrier mid-stream), and requires identical result counts
// and resident state.
func TestParallelEngineMatchesSerialOutput(t *testing.T) {
	run := func(parallelism int) (output uint64, mem int64) {
		r := newRig(t, func(c *Config) { c.JoinParallelism = parallelism })
		seq := uint64(0)
		batch := func(n int) []proto.Data {
			var out []proto.Data
			for b := 0; b < n; b++ {
				out = append(out, dataMsg(t,
					mk(0, uint64(b%7), seq+1), mk(1, uint64(b%7), seq+2),
					mk(0, uint64(b%5), seq+3), mk(1, uint64(b%3), seq+4),
				))
				seq += 4
			}
			return out
		}
		for _, m := range batch(8) {
			r.gen.ep.Send("m1", m)
		}
		// Barrier mid-stream: forced spill advances generations, so the
		// parallel path must fully apply the first half before spilling.
		r.gc.ep.Send("m1", proto.ForceSpill{Amount: 1})
		expect[proto.SpillDone](t, r.gc)
		for _, m := range batch(8) {
			r.gen.ep.Send("m1", m)
		}
		r.drain(t)
		return r.engine.Op().Output(), r.engine.Op().MemBytes()
	}
	serialOut, serialMem := run(1)
	parOut, parMem := run(4)
	if serialOut == 0 {
		t.Fatal("serial run produced no results")
	}
	if parOut != serialOut || parMem != serialMem {
		t.Fatalf("parallel run: output %d mem %d, serial: output %d mem %d",
			parOut, parMem, serialOut, serialMem)
	}
}

// TestParallelEngineSurvivesBadStreamTuple feeds the parallel path a
// tuple with an out-of-range stream: the worker records the error, the
// next barrier surfaces it, and the engine keeps processing.
func TestParallelEngineSurvivesBadStreamTuple(t *testing.T) {
	r := newRig(t, func(c *Config) { c.JoinParallelism = 4 })
	r.gen.ep.Send("m1", dataMsg(t, mk(9, 1, 1))) // stream 9 of 2: rejected
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 2), mk(1, 1, 3)))
	r.drain(t)
	if got := r.engine.Op().Output(); got != 1 {
		t.Fatalf("output = %d after bad-stream tuple, want 1", got)
	}
}

// TestParallelEngineShardMetrics checks the shard pool's observability
// surface: the worker gauge and per-shard tuple counters account for
// every processed tuple.
func TestParallelEngineShardMetrics(t *testing.T) {
	r := newRig(t, func(c *Config) { c.JoinParallelism = 2 })
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2), mk(0, 2, 3), mk(1, 2, 4)))
	r.drain(t)
	dump := r.engine.Registry().Export()
	workers, tuples, quiesces := 0.0, 0.0, 0.0
	for _, m := range dump {
		switch m.Name {
		case "distq_engine_shard_workers":
			workers = m.Value
		case "distq_engine_shard_tuples_total":
			tuples += m.Value
		case "distq_engine_shard_quiesces_total":
			quiesces += m.Value
		}
	}
	if workers != 2 {
		t.Fatalf("shard worker gauge = %v, want 2", workers)
	}
	if tuples != 4 {
		t.Fatalf("shard tuple counters sum to %v, want 4", tuples)
	}
	if quiesces == 0 {
		t.Fatal("no quiesce barriers recorded")
	}
}

// TestParallelEngineRelocationFlow runs the sender/receiver relocation
// exchange with both engines sharded: the barrier before CptV and
// SendStates must present a fully consistent operator to the protocol.
func TestParallelEngineRelocationFlow(t *testing.T) {
	net := transport.NewInproc()
	t.Cleanup(func() { net.Close() })
	store := spill.NewMemStore()
	cfg := Config{
		Node: "m1", Coordinator: "gc", AppServer: "app",
		Inputs: 2, Partitions: 4, Store: store,
		JoinParallelism: 3,
		StatsInterval:   time.Hour, SpillCheckInterval: time.Hour,
	}
	sender := mustNew(t, cfg, vclock.NewManual())
	if err := sender.Attach(net); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Node = "m2"
	cfg2.Store = spill.NewMemStore()
	receiver := mustNew(t, cfg2, vclock.NewManual())
	if err := receiver.Attach(net); err != nil {
		t.Fatal(err)
	}
	gc := newPeer(t, net, "gc")
	newPeer(t, net, "app")
	gen := newPeer(t, net, "gen")
	sender.Start()
	receiver.Start()
	stopOnCleanup(t, sender, receiver)
	expect[proto.Hello](t, gc)
	expect[proto.Hello](t, gc)

	gen.ep.Send("m1", dataMsg(t, mk(0, 0, 1), mk(1, 0, 2), mk(0, 1, 3), mk(1, 1, 4)))
	gc.ep.Send("m1", proto.CptV{Epoch: 1, Amount: 1 << 20, Receiver: "m2"})
	ptv := expect[proto.PtV](t, gc)
	if len(ptv.Partitions) == 0 {
		t.Fatal("sender offered no partitions")
	}
	gc.ep.Send("m1", proto.SendStates{Epoch: 1, Partitions: ptv.Partitions, Receiver: "m2"})
	expect[proto.Installed](t, gc)
	gen.ep.Send("m1", proto.Drain{Token: 1})
	gen.ep.Send("m2", proto.Drain{Token: 1})
	expect[proto.DrainAck](t, gen)
	expect[proto.DrainAck](t, gen)

	for _, id := range ptv.Partitions {
		if snap := sender.Op().ResidentSnapshot(id); snap != nil {
			t.Fatalf("group %d still resident at sender", id)
		}
	}
	// New tuples joining against transferred state still produce.
	before := receiver.Op().Output()
	gen.ep.Send("m2", dataMsg(t, mk(1, 0, 5), mk(1, 1, 6)))
	gen.ep.Send("m2", proto.Drain{Token: 2})
	expect[proto.DrainAck](t, gen)
	if receiver.Op().Output() == before && sender.Op().Output() == 0 {
		t.Fatal("transferred state no longer joins")
	}
}
