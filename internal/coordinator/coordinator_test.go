package coordinator

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// peer collects messages a node receives.
type peer struct {
	ep   transport.Endpoint
	msgs chan proto.Message
}

func newPeer(t *testing.T, net transport.Network, node partition.NodeID) *peer {
	t.Helper()
	p := &peer{msgs: make(chan proto.Message, 256)}
	ep, err := net.Attach(node, func(_ partition.NodeID, msg proto.Message) { p.msgs <- msg })
	if err != nil {
		t.Fatal(err)
	}
	p.ep = ep
	return p
}

func expect[T proto.Message](t *testing.T, p *peer) T {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-p.msgs:
			if v, ok := m.(T); ok {
				return v
			}
		case <-deadline:
			var zero T
			t.Fatalf("timed out waiting for %T", zero)
			return zero
		}
	}
}

func expectNothing(t *testing.T, p *peer) {
	t.Helper()
	select {
	case m := <-p.msgs:
		t.Fatalf("unexpected message %T: %+v", m, m)
	case <-time.After(50 * time.Millisecond):
	}
}

type rig struct {
	coord *Coordinator
	m1    *peer
	m2    *peer
	gen   *peer
	pmap  *partition.Map
}

func newRig(t *testing.T, strategy core.Strategy) *rig {
	t.Helper()
	net := transport.NewInproc()
	t.Cleanup(func() { net.Close() })
	engines := []partition.NodeID{"m1", "m2"}
	pmap, err := partition.NewMap(8, partition.UniformAssign(engines))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{
		Node:       "gc",
		SplitHost:  "gen",
		Engines:    engines,
		Strategy:   strategy,
		Map:        pmap,
		LBInterval: time.Hour, // ticks driven explicitly
	}, vclock.NewManual())
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Attach(net); err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	stopOnCleanup(t, coord)
	return &rig{
		coord: coord,
		m1:    newPeer(t, net, "m1"),
		m2:    newPeer(t, net, "m2"),
		gen:   newPeer(t, net, "gen"),
		pmap:  pmap,
	}
}

// stopOnCleanup stops c when the test ends, before its network closes,
// and waits for its handler to finish: neither the lb ticker nor a
// deadline timer outlives the test.
func stopOnCleanup(t *testing.T, c *Coordinator) {
	t.Cleanup(func() {
		c.Stop()
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Error("coordinator did not stop")
		}
	})
}

func (r *rig) report(t *testing.T, node partition.NodeID, mem int64, output uint64) {
	t.Helper()
	var from *peer
	if node == "m1" {
		from = r.m1
	} else {
		from = r.m2
	}
	if err := from.ep.Send("gc", proto.StatsReport{Node: node, MemBytes: mem, Groups: 4, Output: output}); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) tick(t *testing.T) {
	t.Helper()
	if err := r.gen.ep.Send("gc", proto.Tick{Kind: proto.TickLB}); err != nil {
		t.Fatal(err)
	}
}

func lazy() core.Strategy {
	return core.NewLazyDisk(core.RelocationConfig{Threshold: 0.8, MinGap: 0})
}

func TestCoordinatorWaitsForAllReports(t *testing.T) {
	r := newRig(t, lazy())
	r.report(t, "m1", 1000, 0)
	r.tick(t) // m2 has not reported: no action
	expectNothing(t, r.m1)
}

func TestFullRelocationProtocol(t *testing.T) {
	r := newRig(t, lazy())
	r.report(t, "m1", 1000, 0)
	r.report(t, "m2", 100, 0)
	r.tick(t)

	// Step 1: sender gets cptv.
	cptv := expect[proto.CptV](t, r.m1)
	if cptv.Amount != 450 || cptv.Receiver != "m2" {
		t.Fatalf("CptV = %+v", cptv)
	}
	// Step 2: sender answers ptv.
	parts := []partition.ID{0, 2}
	r.m1.ep.Send("gc", proto.PtV{Epoch: cptv.Epoch, Node: "m1", Partitions: parts})
	// Step 3: split host gets pause.
	pause := expect[proto.Pause](t, r.gen)
	if pause.Owner != "m1" || len(pause.Partitions) != 2 {
		t.Fatalf("Pause = %+v", pause)
	}
	// Step 4: sender acks the marker (relayed by the split host in the
	// real system).
	r.m1.ep.Send("gc", proto.MarkerAck{Epoch: cptv.Epoch, Node: "m1"})
	// Step 5: sender is told to ship.
	ss := expect[proto.SendStates](t, r.m1)
	if ss.Receiver != "m2" {
		t.Fatalf("SendStates = %+v", ss)
	}
	// Step 6: receiver installed.
	r.m2.ep.Send("gc", proto.Installed{Epoch: cptv.Epoch, Node: "m2"})
	// Step 7: split host remapped; master map committed.
	remap := expect[proto.Remap](t, r.gen)
	if remap.Owner != "m2" {
		t.Fatalf("Remap = %+v", remap)
	}
	if owner, _ := r.pmap.Owner(0); owner != "m2" {
		t.Fatal("master map not committed")
	}
	// Step 8: ack completes.
	r.gen.ep.Send("gc", proto.RemapAck{Epoch: cptv.Epoch})
	waitFor(t, func() bool { return r.coord.Relocations() == 1 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOnlyOneAdaptationInFlight(t *testing.T) {
	r := newRig(t, lazy())
	r.report(t, "m1", 1000, 0)
	r.report(t, "m2", 100, 0)
	r.tick(t)
	expect[proto.CptV](t, r.m1)
	// A second tick while the relocation is in flight must not start
	// another adaptation.
	r.tick(t)
	expectNothing(t, r.m1)
}

func TestEmptyPtVAbortsRelocation(t *testing.T) {
	r := newRig(t, lazy())
	r.report(t, "m1", 1000, 0)
	r.report(t, "m2", 100, 0)
	r.tick(t)
	cptv := expect[proto.CptV](t, r.m1)
	r.m1.ep.Send("gc", proto.PtV{Epoch: cptv.Epoch, Node: "m1", Partitions: nil})
	// The coordinator returns to idle: a new tick starts a new attempt.
	r.tick(t)
	expect[proto.CptV](t, r.m1)
}

func TestStaleProtocolMessagesIgnored(t *testing.T) {
	r := newRig(t, lazy())
	r.report(t, "m1", 1000, 0)
	r.report(t, "m2", 100, 0)
	r.tick(t)
	cptv := expect[proto.CptV](t, r.m1)
	// Stale/foreign messages must not advance the protocol.
	r.m1.ep.Send("gc", proto.MarkerAck{Epoch: cptv.Epoch, Node: "m1"}) // wrong phase
	r.m2.ep.Send("gc", proto.Installed{Epoch: cptv.Epoch, Node: "m2"}) // wrong phase
	r.m1.ep.Send("gc", proto.PtV{Epoch: cptv.Epoch + 9, Node: "m1", Partitions: []partition.ID{0}})
	expectNothing(t, r.gen)
}

func TestForcedSpillFlow(t *testing.T) {
	strategy := core.NewActiveDisk(core.ActiveDiskConfig{
		Relocation:     core.RelocationConfig{Threshold: 0.5, MinGap: 0},
		Lambda:         2,
		ForcedFraction: 0.5,
	})
	r := newRig(t, strategy)
	// Memory balanced, productivity skewed: m2 gets forced to spill.
	r.report(t, "m1", 1000, 1000)
	r.report(t, "m2", 900, 10)
	r.tick(t)
	fs := expect[proto.ForceSpill](t, r.m2)
	if fs.Amount != 450 {
		t.Fatalf("ForceSpill = %+v", fs)
	}
	r.m2.ep.Send("gc", proto.SpillDone{Node: "m2", Bytes: 450, Seq: fs.Seq})
	waitFor(t, func() bool { return r.coord.ForcedSpills() == 1 })
}

func TestQuiesceImmediateWhenIdle(t *testing.T) {
	r := newRig(t, lazy())
	r.gen.ep.Send("gc", proto.Quiesce{})
	expect[proto.QuiesceAck](t, r.gen)
	// After quiesce, no new adaptations start.
	r.report(t, "m1", 1000, 0)
	r.report(t, "m2", 100, 0)
	r.tick(t)
	expectNothing(t, r.m1)
}

func TestQuiesceWaitsForInFlightRelocation(t *testing.T) {
	r := newRig(t, lazy())
	r.report(t, "m1", 1000, 0)
	r.report(t, "m2", 100, 0)
	r.tick(t)
	cptv := expect[proto.CptV](t, r.m1)

	r.gen.ep.Send("gc", proto.Quiesce{})
	expectNothing(t, r.gen) // not idle yet

	// Finish the protocol.
	r.m1.ep.Send("gc", proto.PtV{Epoch: cptv.Epoch, Node: "m1", Partitions: []partition.ID{0}})
	expect[proto.Pause](t, r.gen)
	r.m1.ep.Send("gc", proto.MarkerAck{Epoch: cptv.Epoch, Node: "m1"})
	expect[proto.SendStates](t, r.m1)
	r.m2.ep.Send("gc", proto.Installed{Epoch: cptv.Epoch, Node: "m2"})
	expect[proto.Remap](t, r.gen)
	r.gen.ep.Send("gc", proto.RemapAck{Epoch: cptv.Epoch})
	expect[proto.QuiesceAck](t, r.gen)
}

func TestMemSeriesRecorded(t *testing.T) {
	r := newRig(t, lazy())
	r.report(t, "m1", 123, 0)
	waitFor(t, func() bool { return r.coord.MemSeries("m1").Len() == 1 })
	if got := r.coord.MemSeries("m1").Last(); got != 123 {
		t.Fatalf("mem series last = %v", got)
	}
	if r.coord.MemSeries("nope") != nil {
		t.Fatal("series for unknown engine")
	}
}

func TestNewValidation(t *testing.T) {
	pmap, _ := partition.NewMap(4, partition.UniformAssign([]partition.NodeID{"m1"}))
	if _, err := New(Config{Strategy: nil, Map: pmap}, vclock.NewManual()); err == nil {
		t.Fatal("nil strategy accepted")
	}
	if _, err := New(Config{Strategy: core.NoAdapt{}, Map: nil}, vclock.NewManual()); err == nil {
		t.Fatal("nil map accepted")
	}
}

func TestStartRequiresAttach(t *testing.T) {
	pmap, _ := partition.NewMap(4, partition.UniformAssign([]partition.NodeID{"m1"}))
	c, err := New(Config{Strategy: core.NoAdapt{}, Map: pmap}, vclock.NewManual())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("Start before Attach succeeded")
	}
}

func TestProductivityWindowAdvances(t *testing.T) {
	// R is computed per evaluation period: the coordinator must use
	// output deltas, not cumulative output.
	strategy := core.NewActiveDisk(core.ActiveDiskConfig{
		Relocation:     core.RelocationConfig{Threshold: 0.1, MinGap: 0},
		Lambda:         2,
		ForcedFraction: 0.5,
	})
	r := newRig(t, strategy)
	r.report(t, "m1", 1000, 1000)
	r.report(t, "m2", 990, 900)
	r.tick(t) // deltas 1000 vs 900: ratio 1.1 < λ, no action
	expectNothing(t, r.m2)
	// Next period: m1 produced 1000 more, m2 only 10 more.
	r.report(t, "m1", 1000, 2000)
	r.report(t, "m2", 990, 910)
	r.tick(t)
	fs := expect[proto.ForceSpill](t, r.m2)
	if fs.Amount != 495 {
		t.Fatalf("ForceSpill amount = %d", fs.Amount)
	}
}

// dirNet wraps a Network with an AddNode recorder, standing in for the
// TCP transport's directory in dynamic-join tests.
type dirNet struct {
	transport.Network
	mu    sync.Mutex
	added map[partition.NodeID]string
}

func (d *dirNet) AddNode(node partition.NodeID, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.added == nil {
		d.added = make(map[partition.NodeID]string)
	}
	d.added[node] = addr
}

func (d *dirNet) addedAddr(node partition.NodeID) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.added[node]
}

func TestJoinRequestAddrDisseminated(t *testing.T) {
	net := &dirNet{Network: transport.NewInproc()}
	t.Cleanup(func() { net.Close() })
	engines := []partition.NodeID{"m1", "m2"}
	pmap, err := partition.NewMap(8, partition.UniformAssign(engines))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{
		Node: "gc", SplitHost: "gen", Engines: engines,
		Strategy: core.NoAdapt{}, Map: pmap, LBInterval: time.Hour,
	}, vclock.NewManual())
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Attach(net); err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	stopOnCleanup(t, coord)
	m1 := newPeer(t, net, "m1")
	m2 := newPeer(t, net, "m2")
	gen := newPeer(t, net, "gen")
	m3 := newPeer(t, net, "m3")

	if err := m3.ep.Send("gc", proto.JoinRequest{Node: "m3", Addr: "127.0.0.1:7103"}); err != nil {
		t.Fatal(err)
	}
	ack := expect[proto.JoinAck](t, m3)
	if !ack.Accepted {
		t.Fatalf("join refused: %s", ack.Reason)
	}
	// The coordinator's own directory is extended before the ack so the
	// ack itself can route on a directory-based transport.
	if got := net.addedAddr("m3"); got != "127.0.0.1:7103" {
		t.Fatalf("coordinator AddNode(m3) = %q, want 127.0.0.1:7103", got)
	}
	// Split host and both static engines learn the address.
	for name, p := range map[string]*peer{"gen": gen, "m1": m1, "m2": m2} {
		ma := expect[proto.MemberAddr](t, p)
		if ma.Node != "m3" || ma.Addr != "127.0.0.1:7103" {
			t.Fatalf("%s got MemberAddr %+v", name, ma)
		}
	}
	// A later joiner receives a replay of m3's address.
	m4 := newPeer(t, net, "m4")
	if err := m4.ep.Send("gc", proto.JoinRequest{Node: "m4", Addr: "127.0.0.1:7104"}); err != nil {
		t.Fatal(err)
	}
	replay := expect[proto.MemberAddr](t, m4)
	if replay.Node != "m3" || replay.Addr != "127.0.0.1:7103" {
		t.Fatalf("replay to m4 = %+v, want m3's address", replay)
	}
	// m3 (and everyone else) hears about m4; a duplicate JoinRequest
	// then re-acks without re-broadcasting (idempotent per node+addr).
	ma := expect[proto.MemberAddr](t, m3)
	if ma.Node != "m4" {
		t.Fatalf("m3 got MemberAddr %+v, want m4", ma)
	}
	expect[proto.MemberAddr](t, gen) // m4's broadcast
	if err := m3.ep.Send("gc", proto.JoinRequest{Node: "m3", Addr: "127.0.0.1:7103"}); err != nil {
		t.Fatal(err)
	}
	expect[proto.JoinAck](t, m3)
	expectNothing(t, gen)
}
