// Command coordinator runs the global coordinator (GC) as its own OS
// process: it collects statistics from the engines over TCP, decides
// relocations and forced spills under the chosen strategy, and
// orchestrates the 8-step relocation protocol. Its flags fill a
// cluster.Config, whose Map and CoordinatorConfig are what the harness
// builds its coordinator from. See cmd/engine for a full localhost
// cluster example.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/nodeflag"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7000", "listen address")
		genAddr    = flag.String("gen", "127.0.0.1:7002", "generator (split host) address")
		engines    = flag.String("engines", "", "engines as name=addr,...")
		partitions = flag.Int("partitions", 120, "number of partition groups")
		weights    = flag.String("weights", "", "initial distribution weights, e.g. 3,1,1")
		strategy   = flag.String("strategy", "lazy", "adaptation strategy: none|lazy|active")
		theta      = flag.Float64("theta", 0.8, "relocation threshold θ_r")
		tauM       = flag.Duration("tau", 45*time.Second, "minimal relocation gap τ_m (virtual)")
		lambda     = flag.Float64("lambda", 2, "active-disk productivity ratio λ")
		forced     = flag.Float64("forced-fraction", 0.3, "active-disk forced spill fraction")
		forcedCap  = flag.Int64("forced-cap", 0, "active-disk cumulative forced spill cap in bytes (0 = uncapped)")
		highWater  = flag.Int64("high-water", 0, "active-disk memory pressure gate in bytes (0 = always)")
		lbEvery    = flag.Duration("lb-interval", 10*time.Second, "strategy evaluation period (virtual)")
		scale      = flag.Float64("scale", 1, "virtual time compression factor")
		monAddr    = flag.String("monitor", "", "HTTP monitoring address serving /healthz and /stats (empty disables)")
		pprofOn    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the monitor address")
		replicate  = flag.Bool("replicate", false, "keep a warm follower per partition group and fail over to it on engine death")
		hbTimeout  = flag.Duration("heartbeat-timeout", 0, "virtual heartbeat silence before an engine is declared dead (0 disables the watchdog)")
		relTimeout = flag.Duration("reloc-timeout", 0, "virtual deadline per relocation protocol step before retry/escalation (0 disables; required for progress if an engine dies mid-relocation)")
		relRetries = flag.Int("reloc-retries", 0, "step re-sends before a relocation escalates (0 = default 2)")
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
	dir[cluster.CoordinatorNode] = *listen
	dir[cluster.GeneratorNode] = *genAddr

	w, err := nodeflag.ParseWeights(*weights, len(engineNames))
	if err != nil {
		log.Fatal(err)
	}

	var strat core.Strategy
	switch *strategy {
	case "none":
		strat = core.NoAdapt{}
	case "lazy":
		strat = core.NewLazyDisk(core.RelocationConfig{Threshold: *theta, MinGap: *tauM})
	case "active":
		strat = core.NewActiveDisk(core.ActiveDiskConfig{
			Relocation:     core.RelocationConfig{Threshold: *theta, MinGap: *tauM},
			Lambda:         *lambda,
			ForcedFraction: *forced,
			MaxForcedBytes: *forcedCap,
			MemHighWater:   *highWater,
		})
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}

	cfg := cluster.Config{
		Engines:          engineNames,
		InitialWeights:   w,
		Workload:         workload.Config{Partitions: *partitions},
		Strategy:         strat,
		LBInterval:       *lbEvery,
		Replicate:        *replicate,
		HeartbeatTimeout: *hbTimeout,
		RelocTimeout:     *relTimeout,
		RelocMaxRetries:  *relRetries,
	}
	masterMap, err := cfg.Map()
	if err != nil {
		log.Fatal(err)
	}
	net := transport.NewTCP(dir)
	defer net.Close()
	gc, err := coordinator.New(cfg.CoordinatorConfig(masterMap), vclock.NewScaled(*scale))
	if err != nil {
		log.Fatal(err)
	}
	// Mirror structured log events to stderr alongside the process log.
	gc.Logger().SetOutput(os.Stderr)
	net.Instrument(cluster.CoordinatorNode, transport.NewMetrics(gc.Registry(), "coordinator"))
	if err := gc.Attach(net); err != nil {
		log.Fatal(err)
	}
	if err := gc.Start(); err != nil {
		log.Fatal(err)
	}
	if *monAddr != "" {
		mon, err := monitor.StartServer(monitor.Config{
			Addr: *monAddr,
			Snapshot: func() monitor.Snapshot {
				snap := monitor.Snapshot{
					Kind:         "coordinator",
					Relocations:  gc.Relocations(),
					ForcedSpills: gc.ForcedSpills(),
					Promotions:   gc.Promotions(),
					Demotions:    gc.Demotions(),
				}
				snap.Membership = make(map[string]string)
				for node, state := range gc.Membership() {
					snap.Membership[string(node)] = state
				}
				for _, lag := range gc.ReplicationLag() {
					snap.ReplLagBytes += lag
				}
				return snap
			},
			Registry:        gc.Registry(),
			Tracer:          gc.Tracer(),
			Logger:          gc.Logger(),
			EnableProfiling: *pprofOn,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer mon.Close()
		log.Printf("coordinator monitoring on http://%s/stats (metrics at /metrics)", mon.Addr())
	}
	log.Printf("coordinator listening on %s, strategy %s, %d engines", *listen, strat.Name(), len(engineNames))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	gc.Stop()
	log.Printf("coordinator: %d relocations, %d forced spills", gc.Relocations(), gc.ForcedSpills())
}
