// Command appserver runs the application server: the node consuming the
// query's output stream in the paper's Figure 1 architecture. It is
// flags, monitoring and signal handling over cluster.AppServer — the
// node the harness and the distq facade run — tallying the engines'
// result counts and logging the running throughput. See cmd/engine for a
// full localhost cluster example.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/vclock"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7001", "listen address")
		logEvery = flag.Duration("log-every", 5*time.Second, "throughput logging period (wall)")
		monAddr  = flag.String("monitor", "", "HTTP monitoring address serving /healthz, /stats, and /metrics (empty disables)")
		pprofOn  = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the monitor address")
	)
	flag.Parse()

	net := transport.NewTCP(map[partition.NodeID]string{cluster.AppServerNode: *listen})
	defer net.Close()
	// Count-only, as the engine binaries report: no result sets are kept.
	app := cluster.NewAppServer(vclock.NewScaled(1), false, nil)
	// Mirror structured log events to stderr alongside the process log.
	app.Logger().SetOutput(os.Stderr)
	net.Instrument(cluster.AppServerNode, transport.NewMetrics(app.Registry(), "appserver"))
	if *monAddr != "" {
		mon, err := monitor.StartServer(monitor.Config{
			Addr: *monAddr,
			Snapshot: func() monitor.Snapshot {
				return monitor.Snapshot{Kind: "appserver", Output: app.Results()}
			},
			Registry:        app.Registry(),
			Logger:          app.Logger(),
			EnableProfiling: *pprofOn,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer mon.Close()
		log.Printf("appserver monitoring on http://%s/metrics", mon.Addr())
	}
	if err := app.Attach(net); err != nil {
		log.Fatal(err)
	}
	log.Printf("application server listening on %s", *listen)

	tick := vclock.WallTicker(*logEvery)
	defer tick.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var last uint64
	for {
		select {
		case <-tick.C:
			now := app.Results()
			log.Printf("results: %d (+%d)", now, now-last)
			last = now
		case <-sig:
			log.Printf("final result count: %d", app.Results())
			return
		}
	}
}
