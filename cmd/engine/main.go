// Command engine runs one query engine (QE) of the distributed system as
// its own OS process, communicating over TCP — the multi-process
// equivalent of the paper's per-machine query processors.
//
// A minimal three-node cluster on localhost:
//
//	appserver   -listen 127.0.0.1:7001 &
//	coordinator -listen 127.0.0.1:7000 -gen 127.0.0.1:7002 \
//	            -engines m1=127.0.0.1:7101,m2=127.0.0.1:7102 -strategy lazy &
//	engine -node m1 -listen 127.0.0.1:7101 -gc 127.0.0.1:7000 -app 127.0.0.1:7001 \
//	       -peers m2=127.0.0.1:7102 &
//	engine -node m2 -listen 127.0.0.1:7102 -gc 127.0.0.1:7000 -app 127.0.0.1:7001 \
//	       -peers m1=127.0.0.1:7101 &
//	generator -listen 127.0.0.1:7002 -gc 127.0.0.1:7000 -app 127.0.0.1:7001 \
//	          -engines m1=127.0.0.1:7101,m2=127.0.0.1:7102 -duration 10m
//
// The engine runs until interrupted. Its flags fill a cluster.Config,
// whose EngineConfig and NodeStores are what the harness builds its
// engines from.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/nodeflag"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func main() {
	var (
		node        = flag.String("node", "m1", "this engine's node name")
		listen      = flag.String("listen", "127.0.0.1:7101", "listen address")
		gcAddr      = flag.String("gc", "127.0.0.1:7000", "coordinator address")
		appAddr     = flag.String("app", "127.0.0.1:7001", "application server address")
		genAddr     = flag.String("gen", "127.0.0.1:7002", "generator (split host) address")
		peers       = flag.String("peers", "", "other engines as name=addr,... (relocation targets)")
		inputs      = flag.Int("inputs", 3, "number of join inputs")
		partitions  = flag.Int("partitions", 120, "number of partition groups")
		threshold   = flag.Int64("spill-threshold", 0, "local spill threshold in bytes (0 disables local spill)")
		fraction    = flag.Float64("spill-fraction", 0.3, "k%: share of state pushed per spill")
		policyName  = flag.String("policy", "less-productive", "spill policy: less-productive|more-productive|largest|smallest|random")
		storeDir    = flag.String("store", "", "segment store directory (default in-memory)")
		monAddr     = flag.String("monitor", "", "HTTP monitoring address serving /healthz and /stats (empty disables)")
		scale       = flag.Float64("scale", 1, "virtual time compression factor (must match the generator's)")
		groupMet    = flag.Int("group-metrics", 0, "export per-group productivity gauges for the top N groups (0 disables)")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the monitor address")
		joinCluster = flag.Bool("join", false, "join a running cluster at startup (JoinRequest handshake) instead of static registration")
	)
	flag.Parse()

	dir := map[partition.NodeID]string{
		partition.NodeID(*node): *listen,
		cluster.CoordinatorNode: *gcAddr,
		cluster.AppServerNode:   *appAddr,
		cluster.GeneratorNode:   *genAddr, // drain acks flow back to the split host
	}
	peerDir, err := nodeflag.ParseDirectory(*peers)
	if err != nil {
		log.Fatal(err)
	}
	for name, addr := range peerDir {
		dir[name] = addr
	}

	var policy core.Policy
	switch *policyName {
	case "less-productive":
		policy = core.LessProductivePolicy{}
	case "more-productive":
		policy = core.MoreProductivePolicy{}
	case "largest":
		policy = core.LargestPolicy{}
	case "smallest":
		policy = core.SmallestPolicy{}
	case "random":
		policy = core.NewRandomPolicy(1)
	default:
		log.Fatalf("unknown policy %q", *policyName)
	}

	// The engine's own spill store in -store, its standby tier (what it
	// holds as a follower) under -store/standby.
	store, standby, err := cluster.NodeStores(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cluster.Config{
		Workload:     workload.Config{Streams: *inputs, Partitions: *partitions},
		Spill:        core.SpillConfig{MemThreshold: *threshold, Fraction: *fraction},
		LocalSpill:   *threshold > 0,
		Policy:       func(partition.NodeID) core.Policy { return policy },
		GroupMetrics: *groupMet,
	}
	ec := cfg.EngineConfig(partition.NodeID(*node), store, standby)
	ec.DynamicJoin = *joinCluster
	ec.Addr = *listen

	net := transport.NewTCP(dir)
	defer net.Close()
	e, err := engine.New(ec, vclock.NewScaled(*scale))
	if err != nil {
		log.Fatal(err)
	}
	// Mirror structured log events to stderr alongside the process log.
	e.Logger().SetOutput(os.Stderr)
	net.Instrument(partition.NodeID(*node), transport.NewMetrics(e.Registry(), "engine"))
	if err := e.Attach(net); err != nil {
		log.Fatal(err)
	}
	if err := e.Start(); err != nil {
		log.Fatal(err)
	}
	if *monAddr != "" {
		mon, err := monitor.StartServer(monitor.Config{
			Addr: *monAddr,
			Snapshot: func() monitor.Snapshot {
				r, reg := e.StatsSnapshot(), e.Registry()
				snap := monitor.Snapshot{
					Node:         *node,
					Kind:         "engine",
					MemBytes:     r.MemBytes,
					Groups:       r.Groups,
					Output:       r.Output,
					Spills:       int(reg.Sum("distq_engine_spills_total")),
					SpilledBytes: int64(reg.Sum("distq_engine_spill_bytes_total")),
					Segments:     int(reg.Sum("distq_engine_disk_segments")),
				}
				for _, lag := range r.ReplLag {
					snap.ReplLagBytes += lag
				}
				return snap
			},
			Registry:        e.Registry(),
			Tracer:          e.Tracer(),
			Logger:          e.Logger(),
			EnableProfiling: *pprofOn,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer mon.Close()
		log.Printf("engine %s monitoring on http://%s/stats (metrics at /metrics)", *node, mon.Addr())
	}
	log.Printf("engine %s listening on %s (gc=%s app=%s)", *node, *listen, *gcAddr, *appAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	e.Stop()
	select { // let the handler drain before reading state
	case <-e.Done():
	case <-vclock.WallTimeout(5 * time.Second):
		log.Printf("engine %s: handler did not acknowledge stop", *node)
	}
	// The last stats report and the metrics: race-free even if the
	// handler never acknowledged the stop.
	reg := e.Registry()
	log.Printf("engine %s: %d results, %.0f spills, %.0f bytes spilled", *node, e.StatsSnapshot().Output,
		reg.Sum("distq_engine_spills_total"), reg.Sum("distq_engine_spill_bytes_total"))
}
