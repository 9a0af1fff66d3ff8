package engine

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// peer is a scripted cluster node collecting what the engine sends it.
type peer struct {
	ep   transport.Endpoint
	msgs chan peerMsg
}

type peerMsg struct {
	from partition.NodeID
	msg  proto.Message
}

func newPeer(t *testing.T, net transport.Network, node partition.NodeID) *peer {
	t.Helper()
	p := &peer{msgs: make(chan peerMsg, 256)}
	ep, err := net.Attach(node, func(from partition.NodeID, msg proto.Message) {
		// Any peer answers a Drain the way the application server does:
		// engines pass their fence on to it before they acknowledge.
		if d, ok := msg.(proto.Drain); ok {
			p.ep.Send(from, proto.DrainAck{Token: d.Token, Node: node})
		}
		p.msgs <- peerMsg{from, msg}
	})
	if err != nil {
		t.Fatal(err)
	}
	p.ep = ep
	return p
}

// expect waits for the next message of type T from the peer's inbox.
func expect[T proto.Message](t *testing.T, p *peer) T {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-p.msgs:
			if v, ok := m.msg.(T); ok {
				return v
			}
			// Skip unrelated traffic (stats reports etc.).
		case <-deadline:
			var zero T
			t.Fatalf("timed out waiting for %T", zero)
			return zero
		}
	}
}

// mustNew builds an engine, failing the test on config errors.
func mustNew(t *testing.T, cfg Config, clock vclock.Clock) *Engine {
	t.Helper()
	e, err := New(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// rig assembles an engine plus gc/app/gen peers over inproc transport.
type rig struct {
	engine *Engine
	net    transport.Network
	gc     *peer
	app    *peer
	gen    *peer
	store  spill.Store
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	net := transport.NewInproc()
	t.Cleanup(func() { net.Close() })
	store := spill.NewMemStore()
	cfg := Config{
		Node:        "m1",
		Coordinator: "gc",
		AppServer:   "app",
		Inputs:      2,
		Partitions:  4,
		Store:       store,
		// Long intervals: tests drive ticks explicitly.
		StatsInterval:      time.Hour,
		SpillCheckInterval: time.Hour,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e := mustNew(t, cfg, vclock.NewManual())
	if err := e.Attach(net); err != nil {
		t.Fatal(err)
	}
	r := &rig{
		engine: e,
		net:    net,
		gc:     newPeer(t, net, "gc"),
		app:    newPeer(t, net, "app"),
		gen:    newPeer(t, net, "gen"),
		store:  store,
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	stopOnCleanup(t, e)
	// Consume the Hello.
	expect[proto.Hello](t, r.gc)
	return r
}

// stopOnCleanup stops each engine when the test ends, before its network
// closes, and waits for its handler to finish: no ticker
// outlives the test.
func stopOnCleanup(t *testing.T, engines ...*Engine) {
	t.Cleanup(func() {
		for _, e := range engines {
			e.Stop()
			select {
			case <-e.Done():
			case <-time.After(5 * time.Second):
				t.Errorf("engine %s did not stop", e.cfg.Node)
			}
		}
	})
}

func dataMsg(t *testing.T, tuples ...tuple.Tuple) proto.Data {
	t.Helper()
	b := tuple.Batch{Tuples: tuples}
	return proto.Data{Payload: b.Encode(), MapVersion: 1}
}

func mk(stream uint8, key, seq uint64) tuple.Tuple {
	return tuple.Tuple{Stream: stream, Key: key, Seq: seq, Payload: make([]byte, 8)}
}

// drainEngine fences the engine's handler queue.
func (r *rig) drain(t *testing.T) {
	t.Helper()
	if err := r.gen.ep.Send("m1", proto.Drain{Token: 99}); err != nil {
		t.Fatal(err)
	}
	expect[proto.DrainAck](t, r.gen)
}

func TestEngineProcessesDataAndReportsStats(t *testing.T) {
	r := newRig(t, nil)
	if err := r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats}); err != nil {
		t.Fatal(err)
	}
	report := expect[proto.StatsReport](t, r.gc)
	if report.Node != "m1" || report.Output != 1 || report.MemBytes == 0 {
		t.Fatalf("report = %+v", report)
	}
	rc := expect[proto.ResultCount](t, r.app)
	if rc.Delta != 1 {
		t.Fatalf("result count delta = %d", rc.Delta)
	}
	// A second stats tick with no new data reports no new results.
	r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
	expect[proto.StatsReport](t, r.gc)
	select {
	case m := <-r.app.msgs:
		t.Fatalf("unexpected app message %T", m.msg)
	case <-time.After(50 * time.Millisecond):
	}
}

// spills is e's spill count: distq_engine_spills_total over both kinds.
func spills(e *Engine) int { return int(e.reg.Sum("distq_engine_spills_total")) }

func TestEngineLocalSpillOnTick(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.LocalSpill = true
		c.Spill = core.SpillConfig{MemThreshold: 100, Fraction: 0.5}
	})
	for i := 0; i < 10; i++ {
		r.gen.ep.Send("m1", dataMsg(t, mk(0, uint64(i), uint64(i))))
	}
	r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickSpill})
	r.drain(t)
	if spills(r.engine) != 1 {
		t.Fatalf("spills = %d, want 1", spills(r.engine))
	}
	if r.store.SegmentCount() == 0 {
		t.Fatal("no segments persisted")
	}
	if got := r.engine.Registry().Counter("distq_engine_spills_total", obs.L("kind", "local")).Value(); got != 1 {
		t.Fatalf("local spills counted = %v", got)
	}
}

func TestEngineSpillTickBelowThresholdNoop(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.LocalSpill = true
		c.Spill = core.SpillConfig{MemThreshold: 1 << 30, Fraction: 0.5}
	})
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1)))
	r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickSpill})
	r.drain(t)
	if spills(r.engine) != 0 {
		t.Fatal("spilled below threshold")
	}
}

func TestEngineForcedSpill(t *testing.T) {
	r := newRig(t, nil)
	for i := 0; i < 10; i++ {
		r.gen.ep.Send("m1", dataMsg(t, mk(0, uint64(i), uint64(i))))
	}
	if err := r.gc.ep.Send("m1", proto.ForceSpill{Amount: 200}); err != nil {
		t.Fatal(err)
	}
	done := expect[proto.SpillDone](t, r.gc)
	if done.Node != "m1" || done.Bytes < 200 {
		t.Fatalf("SpillDone = %+v", done)
	}
	if got := r.engine.Registry().Counter("distq_engine_spills_total", obs.L("kind", "forced")).Value(); got != 1 {
		t.Fatalf("forced spills counted = %v", got)
	}
}

func TestEnginePauseMarkerAck(t *testing.T) {
	r := newRig(t, nil)
	r.gen.ep.Send("m1", proto.PauseMarker{Epoch: 5})
	ack := expect[proto.MarkerAck](t, r.gc)
	if ack.Epoch != 5 || ack.Node != "m1" {
		t.Fatalf("MarkerAck = %+v", ack)
	}
}

func TestEngineRelocationSenderFlow(t *testing.T) {
	net := transport.NewInproc()
	t.Cleanup(func() { net.Close() })
	store := spill.NewMemStore()
	cfg := Config{
		Node: "m1", Coordinator: "gc", AppServer: "app",
		Inputs: 2, Partitions: 4, Store: store,
		StatsInterval: time.Hour, SpillCheckInterval: time.Hour,
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

	// Load the sender with state in partitions 0 and 1, and spill part of
	// partition 0 so a disk segment exists to transfer.
	gen.ep.Send("m1", dataMsg(t, mk(0, 0, 1), mk(1, 0, 2), mk(0, 1, 3), mk(1, 1, 4)))
	gc.ep.Send("m1", proto.ForceSpill{Amount: 1})
	expect[proto.SpillDone](t, gc)

	// Step 1-2: cptv -> ptv.
	gc.ep.Send("m1", proto.CptV{Epoch: 1, Amount: 1 << 20, Receiver: "m2"})
	ptv := expect[proto.PtV](t, gc)
	if len(ptv.Partitions) == 0 {
		t.Fatal("sender offered no partitions")
	}
	// Step 5: send states.
	gc.ep.Send("m1", proto.SendStates{Epoch: 1, Partitions: ptv.Partitions, Receiver: "m2"})
	installed := expect[proto.Installed](t, gc)
	if installed.Node != "m2" || installed.Epoch != 1 {
		t.Fatalf("Installed = %+v", installed)
	}
	// Fence both engines before inspecting state.
	gen.ep.Send("m1", proto.Drain{Token: 1})
	gen.ep.Send("m2", proto.Drain{Token: 1})
	expect[proto.DrainAck](t, gen)
	expect[proto.DrainAck](t, gen)

	// The moved groups (and their segments) are gone from the sender.
	for _, id := range ptv.Partitions {
		if snap := sender.Op().ResidentSnapshot(id); snap != nil {
			t.Fatalf("group %d still resident at sender", id)
		}
		if segs, _ := store.Read(id); len(segs) != 0 {
			t.Fatalf("group %d segments still at sender", id)
		}
	}
	// The receiver joins new tuples against the transferred state: key 0
	// and key 1 each have a stream-0 tuple resident somewhere.
	total := sender.Op().MemBytes() + receiver.Op().MemBytes()
	if total == 0 {
		t.Fatal("state vanished during relocation")
	}
}

func TestEngineCleanupReportsAndShipsResults(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Materialize = true })
	// Build cross-generation matches: spill after first pair.
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
	r.gc.ep.Send("m1", proto.ForceSpill{Amount: 1 << 20})
	expect[proto.SpillDone](t, r.gc)
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 3), mk(1, 1, 4)))

	if err := r.app.ep.Send("m1", proto.StartCleanup{}); err != nil {
		t.Fatal(err)
	}
	done := expect[proto.CleanupDone](t, r.app)
	// Runtime produced (1,2) and (3,4); cleanup must produce the two
	// cross-generation matches (1,4) and (3,2).
	if done.Results != 2 {
		t.Fatalf("cleanup results = %d, want 2", done.Results)
	}
	if done.Segments != 1 || done.Groups != 1 {
		t.Fatalf("cleanup done = %+v", done)
	}
}

func TestEngineMaterializeShipsRuntimeResults(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Materialize = true })
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
	r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
	rd := expect[proto.ResultData](t, r.app)
	if rd.Phase != proto.PhaseRuntime {
		t.Fatalf("phase = %v", rd.Phase)
	}
	res, used, err := tuple.DecodeResult(rd.Payload)
	if err != nil || used != len(rd.Payload) {
		t.Fatalf("decode: %v", err)
	}
	if res.Key != 1 || res.Seqs[0] != 1 || res.Seqs[1] != 2 {
		t.Fatalf("result = %+v", res)
	}
}

func TestEngineIgnoresUnknownTick(t *testing.T) {
	r := newRig(t, nil)
	r.gen.ep.Send("m1", proto.Tick{Kind: "bogus"})
	r.drain(t) // must not wedge the engine
}

func TestEngineStopHaltsProcessing(t *testing.T) {
	r := newRig(t, nil)
	r.engine.Stop()
	time.Sleep(20 * time.Millisecond)
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
	time.Sleep(20 * time.Millisecond)
	if r.engine.Op().Output() != 0 {
		t.Fatal("engine processed data after Stop")
	}
}

func TestEngineCptVWithNoStateAborts(t *testing.T) {
	r := newRig(t, nil)
	r.gc.ep.Send("m1", proto.CptV{Epoch: 2, Amount: 1000, Receiver: "m2"})
	ptv := expect[proto.PtV](t, r.gc)
	if len(ptv.Partitions) != 0 {
		t.Fatalf("empty engine offered partitions: %v", ptv.Partitions)
	}
}

func TestEngineStartRequiresAttach(t *testing.T) {
	e := mustNew(t, Config{Node: "m1", Inputs: 2, Partitions: 4}, vclock.NewManual())
	if err := e.Start(); err == nil {
		t.Fatal("Start before Attach succeeded")
	}
}

func TestEnginePreFilterDropsAndRewrites(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.PreFilter = operator.Chain{
			operator.Select{Label: "even", Pred: func(t *tuple.Tuple) bool { return t.Key%2 == 0 }},
			operator.Project{Label: "strip", Map: func(t tuple.Tuple) tuple.Tuple { t.Payload = nil; return t }},
		}
	})
	r.gen.ep.Send("m1", dataMsg(t,
		mk(0, 2, 1), mk(1, 2, 2), // kept: match
		mk(0, 3, 3), mk(1, 3, 4), // dropped: odd key
	))
	r.drain(t)
	if r.engine.Op().Output() != 1 {
		t.Fatalf("output = %d, want 1 (odd keys filtered)", r.engine.Op().Output())
	}
	// Projection stripped the payloads: only overhead bytes resident.
	if got := r.engine.Op().MemBytes(); got != 2*56 {
		t.Fatalf("MemBytes = %d, want %d", got, 2*56)
	}
}

func TestEngineSmoothingObservesOnStatsTick(t *testing.T) {
	r := newRig(t, func(c *Config) { c.SmoothingAlpha = 0.5 })
	if r.engine.cfg.Policy.Name() != "push-less-productive-ewma" {
		t.Fatalf("policy = %q", r.engine.cfg.Policy.Name())
	}
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
	r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
	expect[proto.StatsReport](t, r.gc)
	// CptV under smoothing uses the smoothed movers; it must still offer
	// the group.
	r.gc.ep.Send("m1", proto.CptV{Epoch: 1, Amount: 1 << 20, Receiver: "m2"})
	ptv := expect[proto.PtV](t, r.gc)
	if len(ptv.Partitions) != 1 {
		t.Fatalf("smoothed movers offered %v", ptv.Partitions)
	}
}

func TestEngineStatsSnapshotConcurrentRead(t *testing.T) {
	r := newRig(t, nil)
	if s := r.engine.StatsSnapshot(); s.Node != "m1" || s.Output != 0 {
		t.Fatalf("zero snapshot = %+v", s)
	}
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
	r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
	expect[proto.StatsReport](t, r.gc)
	if s := r.engine.StatsSnapshot(); s.Output != 1 || s.MemBytes == 0 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// An engine restarted over the file store of its previous life (no
// replication: the memory tier is gone, the segments are not) must carry
// on each stored group's generation numbering; numbering from 0 again, its
// next spill replaced the surviving segment.
func TestEngineRestartResumesStoredGenerations(t *testing.T) {
	dir := t.TempDir()
	life := func() *rig {
		store, err := spill.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return newRig(t, func(c *Config) { c.Store = store })
	}
	spillAll := func(r *rig) {
		r.gc.ep.Send("m1", proto.ForceSpill{Amount: 1 << 20})
		expect[proto.SpillDone](t, r.gc)
	}

	first := life()
	first.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
	spillAll(first) // everything it held is on disk when it goes down
	first.drain(t)
	runtime := first.engine.Op().Output()
	first.engine.Stop()
	<-first.engine.Done()

	second := life()
	second.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 3), mk(1, 1, 4)))
	spillAll(second)
	second.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 5)))
	second.app.ep.Send("m1", proto.StartCleanup{})
	done := expect[proto.CleanupDone](t, second.app)
	runtime += second.engine.Op().Output()

	if done.Segments != 2 {
		t.Fatalf("cleanup saw %d segments, want both lives' (2)", done.Segments)
	}
	// Oracle: 3 tuples of input 0 × 2 of input 1 on the one key.
	if runtime != 2 || runtime+done.Results != 6 {
		t.Fatalf("runtime %d + cleanup %d results, want 2 + 4", runtime, done.Results)
	}
}

// Resuming costs a header per group, not a read of its segments: a stored
// segment whose body is damaged does not stop the engine from starting
// (cleanup, which needs the body, is where the checksum speaks up). And a
// group the engine resumed but lost to a failover while it was down goes
// with the Demote that follows its rejoin, both tiers.
func TestEngineRestartReadsHeadersOnlyAndDemoteDropsResumedGroups(t *testing.T) {
	for _, damaged := range []bool{false, true} {
		dir := t.TempDir()
		life := func() *rig {
			store, err := spill.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			r := newRig(t, func(c *Config) { c.Store = store })
			r.store = store
			return r
		}
		first := life()
		first.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
		first.gc.ep.Send("m1", proto.ForceSpill{Amount: 1 << 20})
		expect[proto.SpillDone](t, first.gc)
		first.engine.Stop()
		<-first.engine.Done()

		if damaged {
			segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
			if len(segs) != 1 {
				t.Fatalf("stored segments %v, want one", segs)
			}
			buf, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)-5] ^= 0xFF // the last tuple's payload, before the checksum
			if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		second := life() // New would fail on a full read of the damaged segment
		if got := second.engine.Op().Groups(); got != 1 {
			t.Fatalf("damaged=%v: %d groups resumed, want the stored one", damaged, got)
		}
		if damaged {
			continue // Demote reads what it removes
		}
		second.gc.ep.Send("m1", proto.Demote{Epoch: 1, Groups: second.store.Groups()})
		expect[proto.DemoteAck](t, second.gc)
		if g, n := second.engine.Op().Groups(), second.store.SegmentCount(); g != 0 || n != 0 {
			t.Fatalf("after the demote: %d groups resident, %d segments stored; want none", g, n)
		}
	}
}

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
	if n := spills(r.engine); n != 0 {
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
