// Command appserver runs the application server: the node consuming the
// query's output stream in the paper's Figure 1 architecture. It tallies
// result counts from the engines and logs the running throughput. See
// cmd/engine for a full localhost cluster example.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
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

	var total atomic.Uint64
	dir := map[partition.NodeID]string{cluster.AppServerNode: *listen}
	net := transport.NewTCP(dir)
	defer net.Close()
	reg := obs.NewRegistry()
	reg.Help("distq_appserver_results_total", "result tuples received from the engines")
	net.Instrument(cluster.AppServerNode, transport.NewMetrics(reg, "appserver"))
	logger := obs.NewLogger(obs.LoggerConfig{Node: string(cluster.AppServerNode), Kind: "appserver"})
	logger.SetOutput(os.Stderr)
	if *monAddr != "" {
		mon, err := monitor.StartServer(monitor.Config{
			Addr: *monAddr,
			Snapshot: func() monitor.Snapshot {
				return monitor.Snapshot{Kind: "appserver", Output: total.Load()}
			},
			Registry:        reg,
			Logger:          logger,
			EnableProfiling: *pprofOn,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer mon.Close()
		log.Printf("appserver monitoring on http://%s/metrics", mon.Addr())
	}
	results := reg.Counter("distq_appserver_results_total")
	var ep transport.Endpoint
	ep, err := net.Attach(cluster.AppServerNode, func(from partition.NodeID, msg proto.Message) {
		//distq:handles appserver
		switch m := msg.(type) {
		case proto.ResultCount:
			total.Add(m.Delta)
			results.Add(float64(m.Delta))
		case proto.ResultData:
			// Materializing engines ship encoded results; count them.
			var n uint64
			for buf := m.Payload; len(buf) > 0; {
				_, used, err := decodeResultSize(buf)
				if err != nil {
					log.Printf("bad result data from %s: %v", from, err)
					return
				}
				buf = buf[used:]
				n++
			}
			total.Add(n)
			results.Add(float64(n))
		case proto.CleanupDone:
			if m.Error != "" {
				log.Printf("cleanup on %s failed: %s", m.Node, m.Error)
			} else {
				log.Printf("cleanup on %s: %d results from %d spilled tuples", m.Node, m.Results, m.Tuples)
			}
		case proto.Drain:
			// Fence: every result enqueued before this message is tallied.
			if err := ep.Send(from, proto.DrainAck{Token: m.Token, Node: cluster.AppServerNode}); err != nil {
				log.Printf("drain ack to %s: %v", from, err)
			}
		}
	})
	if err != nil {
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
			now := total.Load()
			log.Printf("results: %d (+%d)", now, now-last)
			last = now
		case <-sig:
			log.Printf("final result count: %d", total.Load())
			return
		}
	}
}

// decodeResultSize parses one encoded result's length without keeping it.
func decodeResultSize(buf []byte) (struct{}, int, error) {
	_, used, err := tuple.DecodeResult(buf)
	return struct{}{}, used, err
}
