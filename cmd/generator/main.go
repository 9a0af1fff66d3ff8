// Command generator runs the stream generator node: flags, trace
// record/replay and monitoring over cluster.SplitHost and cluster.Feeder —
// the split-operator host and paced workload the harness runs. It paces
// the paper's synthetic workload over TCP to the engines and drives the
// end-of-run fence (quiesce, drain) and the cleanup phase. See
// cmd/engine for a full localhost cluster example.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/nodeflag"
	"repro/internal/obs"
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
		recordTo     = flag.String("record", "", "record the fed tuples into a trace file")
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
	w, err := nodeflag.ParseWeights(*weights, len(engineNames))
	if err != nil {
		log.Fatal(err)
	}
	cfg := cluster.Config{
		Engines:        engineNames,
		InitialWeights: w,
		Workload: workload.Config{
			Streams:      *streams,
			Partitions:   *partitions,
			Classes:      []workload.Class{{Fraction: 1, JoinRate: *joinRate, TupleRange: *tupleRange}},
			InterArrival: *interArrival,
			PayloadBytes: *payload,
			Seed:         *seed,
		},
	}
	// The same map the coordinator builds from the same flags.
	pmap, err := cfg.Map()
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.New(cfg.Workload)
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
	host, err := cluster.NewSplitHost(net, clock, pmap)
	if err != nil {
		log.Fatal(err)
	}
	// Mirror structured log events to stderr alongside the process log.
	host.Logger().SetOutput(os.Stderr)
	router := host.Router()

	// record sees every tuple on its way to the router.
	record := func(tuple.Tuple) error { return nil }
	var recorder *traceWriter
	if *recordTo != "" {
		if recorder, err = createTrace(*recordTo, *streams); err != nil {
			log.Fatal(err)
		}
		record = func(t tuple.Tuple) error { return recorder.Append(&t) }
	}

	var fed uint64
	if *replay != "" {
		// Replay a recorded trace, pacing by the recorded timestamps.
		rd, err := openTrace(*replay)
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
			if err := record(t); err != nil {
				log.Fatalf("record: %v", err)
			}
			if err := router.Route(t); err != nil {
				log.Fatalf("route: %v", err)
			}
			fed++
		}
		if err := router.Flush(); err != nil {
			log.Fatalf("flush: %v", err)
		}
	} else {
		log.Printf("generator feeding %d streams for %v (virtual, scale %gx)", *streams, *duration, *scale)
		feeder := cluster.NewFeeder(clock, gen, router)
		feeder.Record = record
		if err := feeder.Feed(*duration); err != nil {
			log.Fatal(err)
		}
		fed = feeder.Generated()
	}
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("recorded %d tuples to %s", recorder.Count(), *recordTo)
	}
	log.Printf("run-time phase done: %d tuples fed; quiescing", fed)

	// Fence: quiesce the coordinator, then drain the engines and, behind
	// their results, the application server. An engine that cannot be
	// reached is skipped (logged by the split host): its groups failed
	// over to a follower, which is drained under its own name if static,
	// or flushes results continuously if it joined dynamically.
	if err := host.Quiesce(); err != nil {
		log.Fatal(err)
	}
	if err := host.Drain(engineNames); err != nil {
		log.Fatal(err)
	}
	if n := router.SendFailures(); n > 0 {
		log.Printf("%d data batches parked on unreachable owners and re-released after remap", n)
	}
	log.Printf("drained; peak pause buffer %d tuples", router.BufferedPeak())

	if *cleanup {
		summary, err := host.RunCleanup(engineNames)
		for _, node := range engineNames {
			if done, ok := summary.PerNode[node]; ok {
				log.Printf("cleanup %s: %d groups, %d segments, %d tuples, %d results in %v",
					done.Node, done.Groups, done.Segments, done.Tuples, done.Results,
					time.Duration(done.ElapsedNs))
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cleanup total: %d missed results from %d spilled tuples\n", summary.Results, summary.Tuples)
	}
	log.Printf("experiment complete")
}
