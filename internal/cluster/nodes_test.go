package cluster

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// freeAddr reserves a loopback address for a node that must know its own
// address before it listens (an engine advertises it).
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestOneNetworkPerNode runs the deployment the four binaries are, which
// no shared-network test can: every node is built through the calls its
// main makes, on a TCP network and a clock of its own, and knows only the
// addresses its flags would name — the application server none but its
// own, nobody the engine that joins at run time. What the nodes must
// tell each other to get through a run — the joiner's address to
// coordinator, peers and split host, every engine's to the application
// server ahead of the fence it relays — has to travel in messages. The
// run is exact: run-time ∪ cleanup results equal the oracle's.
func TestOneNetworkPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	const scale = 60 // one virtual minute is a second: 9 000 tuples/s, light enough for -race
	cfg := Config{
		Engines:            []partition.NodeID{"m1"},
		Workload:           fastWorkload(),
		Strategy:           core.NewLazyDisk(core.RelocationConfig{Threshold: 0.8, MinGap: 20 * time.Second}),
		LocalSpill:         true,
		Spill:              core.SpillConfig{MemThreshold: 48 << 10, Fraction: 0.3},
		Materialize:        true,
		StatsInterval:      3 * time.Second,
		SpillCheckInterval: 2 * time.Second,
		LBInterval:         5 * time.Second,
	}
	nets := make(map[partition.NodeID]*transport.TCP)
	listen := func(node partition.NodeID, addr string) *transport.TCP {
		n := transport.NewTCP(map[partition.NodeID]string{node: addr})
		t.Cleanup(func() { n.Close() })
		nets[node] = n
		return n
	}
	// knows gives node's network the addresses its binary's flags name.
	knows := func(node partition.NodeID, peers ...partition.NodeID) {
		for _, p := range peers {
			addr, _ := nets[p].Addr(p)
			nets[node].AddNode(p, addr)
		}
	}

	// cmd/appserver.
	app := NewAppServer(vclock.NewScaled(scale), true, nil)
	if err := app.Attach(listen(AppServerNode, "127.0.0.1:0")); err != nil {
		t.Fatal(err)
	}
	// cmd/coordinator.
	master, err := cfg.Map()
	if err != nil {
		t.Fatal(err)
	}
	gc, err := coordinator.New(cfg.CoordinatorConfig(master), vclock.NewScaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	if err := gc.Attach(listen(CoordinatorNode, "127.0.0.1:0")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gc.Stop)
	// cmd/engine, with and without -join.
	startEngine := func(node partition.NodeID, dynamic bool) *engine.Engine {
		store, standby, err := NodeStores(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ec := cfg.EngineConfig(node, store, standby)
		ec.DynamicJoin, ec.Addr = dynamic, freeAddr(t)
		e, err := engine.New(ec, vclock.NewScaled(scale))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Attach(listen(node, ec.Addr)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Stop)
		return e
	}
	m1 := startEngine("m1", false)
	// cmd/generator: its own copy of the map, from the same flags.
	genMap, err := cfg.Map()
	if err != nil {
		t.Fatal(err)
	}
	genClock := vclock.NewScaled(scale)
	host, err := NewSplitHost(listen(GeneratorNode, "127.0.0.1:0"), genClock, genMap)
	if err != nil {
		t.Fatal(err)
	}
	knows(CoordinatorNode, GeneratorNode, "m1")
	knows("m1", CoordinatorNode, AppServerNode, GeneratorNode)
	knows(GeneratorNode, CoordinatorNode, AppServerNode, "m1")
	if err := gc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}

	gen, err := workload.New(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	feeder := NewFeeder(genClock, gen, host.Router())
	var history []tuple.Tuple
	feeder.Record = func(tp tuple.Tuple) error {
		tp.Payload = nil // the generator's scratch; the oracle reads keys
		history = append(history, tp)
		return nil
	}
	if err := feeder.Feed(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// engine -join: m2 is in nobody's directory.
	m2 := startEngine("m2", true)
	knows("m2", CoordinatorNode, AppServerNode, GeneratorNode, "m1")
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	guard := vclock.WallTimeout(30 * time.Second)
	for gc.Membership()["m2"] != "active" || len(master.OwnedBy("m2")) == 0 || host.Router().PausedPartitions() > 0 {
		select {
		case <-guard:
			t.Fatalf("m2 never admitted and rebalanced: membership %v, owns %d", gc.Membership(), len(master.OwnedBy("m2")))
		default:
		}
		if err := feeder.Feed(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := feeder.Feed(40 * time.Second); err != nil {
		t.Fatal(err)
	}

	engines := []partition.NodeID{"m1", "m2"}
	if err := host.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := host.Drain(engines); err != nil {
		t.Fatal(err)
	}
	// sets reads the result sets' sizes under the handler's lock: no
	// happens-before edge crosses a socket.
	sets := func() (runtime, cleanup int) {
		app.mu.Lock()
		defer app.mu.Unlock()
		return app.runtimeSet.Len(), app.cleanupSet.Len()
	}
	fenced, _ := sets()
	summary, err := host.RunCleanup(engines)
	if err != nil {
		t.Fatal(err)
	}
	// The cleanup's results travel engine→app, its reports engine→gen:
	// fence once more behind them.
	if err := host.Drain(engines); err != nil {
		t.Fatal(err)
	}
	gc.Stop()
	m1.Stop()
	m2.Stop()
	awaitStopped(5*time.Second, gc.Done(), m1.Done(), m2.Done())

	if m2.Op().Output() == 0 {
		t.Error("the joiner produced no results")
	}
	if summary.Results == 0 {
		t.Error("nothing was spilled: the cleanup phase had no work")
	}
	if produced := m1.Op().Output() + m2.Op().Output(); uint64(fenced) != produced {
		t.Errorf("%d results at the application server when Drain returned, the engines produced %d", fenced, produced)
	}
	runtime, cleanup := sets()
	want := join.OracleCount(cfg.Workload.Streams, history)
	if got := uint64(runtime + cleanup); got != want || app.Duplicates() != 0 {
		t.Errorf("run-time %d + cleanup %d = %d results, %d duplicates; oracle %d", runtime, cleanup, got, app.Duplicates(), want)
	}
}

// An engine's introduction needs no retry. Here the coordinator is not up
// when the engine starts, so its Hello is lost; the coordinator's watchdog,
// never having heard from it, declares it dead — and the engine's first
// StatsReport, a heartbeat like every report, brings it back.
func TestFirstStatsReportIntroducesAnEngine(t *testing.T) {
	cfg := Config{Engines: []partition.NodeID{"m1"}, Workload: fastWorkload(),
		HeartbeatTimeout: 10 * time.Second, StatsInterval: time.Hour, LBInterval: time.Hour}
	clock := vclock.NewManual()
	net := transport.NewInproc()
	t.Cleanup(func() { net.Close() })
	// The test plays the split host, which the watchdog's Pause goes to.
	host, err := net.Attach(GeneratorNode, func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(cfg.EngineConfig("m1", nil, nil), clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(net); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Crash)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	master, err := cfg.Map()
	if err != nil {
		t.Fatal(err)
	}
	gc, err := coordinator.New(cfg.CoordinatorConfig(master), clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := gc.Attach(net); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gc.Stop)
	await := func(what string, cond func() bool) {
		t.Helper()
		for guard := vclock.WallTimeout(5 * time.Second); !cond(); vclock.WallSleep(time.Millisecond) {
			select {
			case <-guard:
				t.Fatalf("timed out waiting for %s", what)
			default:
			}
		}
	}
	clock.Advance(cfg.HeartbeatTimeout + time.Second)
	if err := host.Send(CoordinatorNode, proto.Tick{Kind: proto.TickLB}); err != nil {
		t.Fatal(err)
	}
	await("the watchdog to give m1 up", func() bool { return !gc.EngineAlive("m1") })
	if err := host.Send("m1", proto.Tick{Kind: proto.TickStats}); err != nil {
		t.Fatal(err)
	}
	await("m1's first report to revive it", func() bool { return gc.EngineAlive("m1") })
}

// Start arms a node's timers on its clock: neither an engine (sr_timer,
// and ss_timer with LocalSpill) nor the coordinator (lb_timer) starts a
// goroutine to wait on time.
func TestStartStartsNoGoroutine(t *testing.T) {
	cfg := Config{Engines: []partition.NodeID{"m1"}, Workload: fastWorkload(), LocalSpill: true,
		StatsInterval: time.Second, SpillCheckInterval: time.Second, LBInterval: time.Second}
	clock := vclock.NewManual()
	net := transport.NewInproc()
	t.Cleanup(func() { net.Close() })
	e, err := engine.New(cfg.EngineConfig("m1", nil, nil), clock)
	if err != nil {
		t.Fatal(err)
	}
	master, err := cfg.Map()
	if err != nil {
		t.Fatal(err)
	}
	gc, err := coordinator.New(cfg.CoordinatorConfig(master), clock)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []interface {
		Attach(transport.Network) error
		Start() error
		Stop()
		Done() <-chan struct{}
	}{gc, e} {
		if err := node.Attach(net); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			node.Stop()
			<-node.Done()
		})
		before := settledGoroutines()
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("%T.Start took the goroutine count from %d to %d", node, before, after)
		}
	}
}

// settledGoroutines waits for the goroutine count to hold still for
// 10 ms — earlier tests' goroutines wind down after their cleanups — and
// returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		vclock.WallSleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
