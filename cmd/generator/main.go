// Command generator runs the stream generator node: it hosts the split
// operators, paces the paper's synthetic workload over TCP to the
// engines, and drives the end-of-run fence (quiesce, drain) and the
// cleanup phase. See cmd/engine for a full localhost cluster example.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/nodeflag"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/split"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:7002", "listen address")
		gcAddr       = flag.String("gc", "127.0.0.1:7000", "coordinator address")
		appAddr      = flag.String("app", "127.0.0.1:7001", "application server address")
		engines      = flag.String("engines", "", "engines as name=addr,...")
		partitions   = flag.Int("partitions", 120, "number of partition groups")
		weights      = flag.String("weights", "", "initial distribution weights, e.g. 3,1,1")
		streams      = flag.Int("streams", 3, "number of join inputs")
		interArrival = flag.Duration("rate", 30*time.Millisecond, "inter-arrival time per stream (virtual)")
		joinRate     = flag.Int("join-rate", 3, "join multiplicative factor increase rate r")
		tupleRange   = flag.Int("range", 30000, "tuple range k")
		payload      = flag.Int("payload", 40, "payload bytes per tuple")
		duration     = flag.Duration("duration", 10*time.Minute, "run-time phase length (virtual)")
		scale        = flag.Float64("scale", 1, "virtual time compression factor")
		cleanup      = flag.Bool("cleanup", true, "run the disk-phase cleanup after draining")
		seed         = flag.Int64("seed", 42, "workload seed")
		record       = flag.String("record", "", "record the fed tuples into a trace file")
		replay       = flag.String("replay", "", "replay a recorded trace instead of the synthetic workload")
		monAddr      = flag.String("monitor", "", "HTTP monitoring address serving /healthz, /stats, and /metrics (empty disables)")
	)
	flag.Parse()

	engineNames, err := nodeflag.EngineNames(*engines)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := nodeflag.ParseDirectory(*engines)
	if err != nil {
		log.Fatal(err)
	}
	dir[cluster.GeneratorNode] = *listen
	dir[cluster.CoordinatorNode] = *gcAddr
	dir[cluster.AppServerNode] = *appAddr

	assign := partition.UniformAssign(engineNames)
	if w, err := nodeflag.ParseWeights(*weights, len(engineNames)); err != nil {
		log.Fatal(err)
	} else if w != nil {
		assign, err = partition.WeightedAssign(engineNames, w)
		if err != nil {
			log.Fatal(err)
		}
	}
	pmap, err := partition.NewMap(*partitions, assign)
	if err != nil {
		log.Fatal(err)
	}

	gen, err := workload.New(workload.Config{
		Streams:      *streams,
		Partitions:   *partitions,
		Classes:      []workload.Class{{Fraction: 1, JoinRate: *joinRate, TupleRange: *tupleRange}},
		InterArrival: *interArrival,
		PayloadBytes: *payload,
		Seed:         *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	clock := vclock.NewScaled(*scale)
	net := transport.NewTCP(dir)
	defer net.Close()
	reg := obs.NewRegistry()
	net.Instrument(cluster.GeneratorNode, transport.NewMetrics(reg, "generator"))
	if *monAddr != "" {
		mon, err := monitor.StartServer(monitor.Config{
			Addr:     *monAddr,
			Snapshot: func() monitor.Snapshot { return monitor.Snapshot{Kind: "generator"} },
			Registry: reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer mon.Close()
		log.Printf("generator monitoring on http://%s/metrics", mon.Addr())
	}

	drainCh := make(chan proto.DrainAck, 64)
	quiesceCh := make(chan struct{}, 1)
	cleanupCh := make(chan proto.CleanupDone, 64)
	var router *split.Router
	ep, err := net.Attach(cluster.GeneratorNode, func(from partition.NodeID, msg proto.Message) {
		if handled, err := router.HandleControl(msg); handled {
			if err != nil {
				log.Printf("router: %v", err)
			}
			return
		}
		switch m := msg.(type) {
		case proto.DrainAck:
			drainCh <- m
		case proto.QuiesceAck:
			select {
			case quiesceCh <- struct{}{}:
			default:
			}
		case proto.CleanupDone:
			cleanupCh <- m
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	owner, version := pmap.Snapshot()
	router, err = split.New(ep, cluster.CoordinatorNode, gen.PartitionFunc(), owner, version, split.DefaultBatchSize)
	if err != nil {
		log.Fatal(err)
	}
	router.DirectoryExtender(net.AddNode)

	var recorder *trace.Writer
	if *record != "" {
		recorder, err = trace.Create(*record, *streams)
		if err != nil {
			log.Fatal(err)
		}
	}
	feed := func(t tuple.Tuple) {
		if recorder != nil {
			if err := recorder.Append(&t); err != nil {
				log.Fatalf("record: %v", err)
			}
		}
		if err := router.Route(t); err != nil {
			log.Fatalf("route: %v", err)
		}
	}

	var fed uint64
	if *replay != "" {
		// Replay a recorded trace, pacing by the recorded timestamps.
		rd, err := trace.Open(*replay)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("generator replaying %d tuples from %s (scale %gx)", rd.Count(), *replay, *scale)
		for {
			t, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				log.Fatal(err)
			}
			for clock.Now() < t.Ts {
				clock.Sleep(50 * time.Millisecond)
				if err := router.Flush(); err != nil {
					log.Fatalf("flush: %v", err)
				}
			}
			feed(t)
			fed++
		}
		if err := router.Flush(); err != nil {
			log.Fatalf("flush: %v", err)
		}
	} else {
		log.Printf("generator feeding %d streams for %v (virtual, scale %gx)", *streams, *duration, *scale)
		end := vclock.Time(*duration)
		next := make([]vclock.Time, *streams)
		for {
			now := clock.Now()
			for s := 0; s < *streams; s++ {
				for next[s] <= now && next[s] < end {
					feed(gen.Next(s, next[s]))
					next[s] = next[s].Add(*interArrival)
				}
			}
			if err := router.Flush(); err != nil {
				log.Fatalf("flush: %v", err)
			}
			if now >= end {
				break
			}
			clock.Sleep(150 * time.Millisecond)
		}
		for s := 0; s < *streams; s++ {
			fed += gen.Emitted(s)
		}
	}
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("recorded %d tuples to %s", recorder.Count(), *record)
	}
	log.Printf("run-time phase done: %d tuples fed; quiescing", fed)

	// Fence: quiesce the coordinator, then drain the engines.
	if err := ep.Send(cluster.CoordinatorNode, proto.Quiesce{}); err != nil {
		log.Fatal(err)
	}
	select {
	case <-quiesceCh:
	case <-vclock.WallTimeout(60 * time.Second):
		log.Fatal("quiesce timed out")
	}
	if err := router.Flush(); err != nil {
		log.Fatal(err)
	}
	drains := 0
	for _, node := range engineNames {
		if err := ep.Send(node, proto.Drain{Token: 1}); err != nil {
			// A dead engine cannot drain; its groups failed over to a
			// follower (which is drained under its own name if static,
			// or flushes results continuously if it joined dynamically).
			log.Printf("drain %s skipped: %v", node, err)
			continue
		}
		drains++
	}
	for i := 0; i < drains; i++ {
		select {
		case <-drainCh:
		case <-vclock.WallTimeout(60 * time.Second):
			log.Fatal("drain timed out")
		}
	}
	if n := router.SendFailures(); n > 0 {
		log.Printf("%d data batches parked on unreachable owners and re-released after remap", n)
	}
	log.Printf("drained; peak pause buffer %d tuples", router.BufferedPeak())

	if *cleanup {
		for _, node := range engineNames {
			if err := ep.Send(node, proto.StartCleanup{}); err != nil {
				log.Fatal(err)
			}
		}
		var results uint64
		var tuples int
		for range engineNames {
			select {
			case done := <-cleanupCh:
				results += done.Results
				tuples += done.Tuples
				log.Printf("cleanup %s: %d groups, %d segments, %d tuples, %d results in %v",
					done.Node, done.Groups, done.Segments, done.Tuples, done.Results,
					time.Duration(done.ElapsedNs))
			case <-vclock.WallTimeout(5 * time.Minute):
				log.Fatal("cleanup timed out")
			}
		}
		fmt.Printf("cleanup total: %d missed results from %d spilled tuples\n", results, tuples)
	}
	log.Printf("experiment complete")
}
