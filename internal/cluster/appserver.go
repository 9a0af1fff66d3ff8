package cluster

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// AppServer is the application-server node: it consumes result counts
// (run-time throughput) and, in materializing mode, the full results with
// duplicate detection. It also acts as the control endpoint for the
// cleanup phase. The harness, the distq facade and cmd/appserver all run
// this one.
type AppServer struct {
	clock       vclock.Clock
	net         transport.Network
	ep          transport.Endpoint
	materialize bool
	log         *obs.Logger
	reg         *obs.Registry
	results     *obs.Counter

	onResult func(proto.Phase, tuple.Result)

	mu         sync.Mutex
	cumulative uint64
	throughput *stats.Series
	runtimeSet *tuple.ResultSet
	cleanupSet *tuple.ResultSet
	dups       int

	cleanupCh chan proto.CleanupDone
}

// NewAppServer builds an application server; Attach must be called before
// use. onResult, when non-nil, receives every materialized result, after
// the result's frame is duplicate-checked and outside the server's lock.
func NewAppServer(clock vclock.Clock, materialize bool, onResult func(proto.Phase, tuple.Result)) *AppServer {
	a := &AppServer{
		onResult:    onResult,
		clock:       clock,
		materialize: materialize,
		log:         obs.NewLogger(obs.LoggerConfig{Node: string(AppServerNode), Kind: "appserver", Now: clock.Now}),
		reg:         obs.NewRegistry(),
		throughput:  stats.NewSeries("output"),
		cleanupCh:   make(chan proto.CleanupDone, 64),
	}
	a.reg.Help("distq_appserver_results_total", "result tuples counted by the engines' reports")
	a.results = a.reg.Counter("distq_appserver_results_total")
	if materialize {
		a.runtimeSet = tuple.NewResultSet()
		a.cleanupSet = tuple.NewResultSet()
	}
	return a
}

// Attach joins the application server to the network.
func (a *AppServer) Attach(net transport.Network) error {
	ep, err := net.Attach(AppServerNode, a.handle)
	if err != nil {
		return err
	}
	a.ep = ep
	a.net = net
	return nil
}

func (a *AppServer) handle(from partition.NodeID, msg proto.Message) {
	//distq:handles appserver
	switch m := msg.(type) {
	case proto.ResultCount:
		a.results.Add(float64(m.Delta))
		a.mu.Lock()
		a.cumulative += m.Delta
		a.throughput.Add(a.clock.Now(), float64(a.cumulative))
		a.mu.Unlock()
	case proto.ResultData:
		if err := a.onResultData(m); err != nil {
			a.log.Error("result_data_error", obs.F("engine", string(m.Node)), obs.FErr(err))
		}
	case proto.CleanupDone:
		a.cleanupCh <- m
	case proto.MemberAddr:
		// An engine in a process of its own introduces itself ahead of the
		// Drain it passes on: nobody else tells this node where engines
		// live, and the ack has to find its way back.
		transport.AddNode(a.net, m.Node, m.Addr)
	case proto.Drain:
		// Fence: every result the sender enqueued before this message is
		// processed. An engine relays its Drain here behind its results.
		if err := a.ep.Send(from, proto.DrainAck{Token: m.Token, Node: AppServerNode}); err != nil {
			a.log.Error("drain_ack_error", obs.FErr(err))
		}
	default:
		a.log.Warn("unexpected_message", obs.F("type", fmt.Sprintf("%T", msg)), obs.F("from", string(from)))
	}
}

func (a *AppServer) onResultData(m proto.ResultData) error {
	if !a.materialize {
		return fmt.Errorf("result data in count-only mode")
	}
	rd, err := tuple.ReadResults(m.Payload)
	if err != nil {
		return err
	}
	// The callbacks read the frame a second time, after the lock is
	// released: a callback may ask this server for its counts. The handler
	// is serial, so frames still reach them in arrival order.
	deliver := rd
	var r tuple.Result
	a.mu.Lock()
	for rd.Next(&r) {
		// A result is a duplicate if it was seen in either phase.
		switch m.Phase {
		case proto.PhaseRuntime:
			if a.cleanupSet.Contains(r) || !a.runtimeSet.Add(r) {
				a.dups++
			}
		case proto.PhaseCleanup:
			if a.runtimeSet.Contains(r) || !a.cleanupSet.Add(r) {
				a.dups++
			}
		}
	}
	a.mu.Unlock()
	if a.onResult != nil {
		for deliver.Next(&r) {
			a.onResult(m.Phase, r)
		}
	}
	return nil
}

// Duplicates reports how many duplicate results were observed.
func (a *AppServer) Duplicates() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dups
}

// Results reports the run-time results counted so far.
func (a *AppServer) Results() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cumulative
}

// Registry exposes the node's metrics registry (monitoring endpoints,
// transport instrumentation).
func (a *AppServer) Registry() *obs.Registry { return a.reg }

// Logger exposes the node's structured logger.
func (a *AppServer) Logger() *obs.Logger { return a.log }

// RunCleanup drives the disk phase from this node (see gatherCleanup).
func (a *AppServer) RunCleanup(engines []partition.NodeID) (CleanupSummary, error) {
	return gatherCleanup(a.ep, a.cleanupCh, engines)
}

// gatherCleanup orders every engine to run its disk phase and gathers
// the reports, which come back to the node that asked: reports is where
// its handler puts them. Engines clean up concurrently, as the machines
// of the paper's cluster do.
func gatherCleanup(ep transport.Endpoint, reports <-chan proto.CleanupDone, engines []partition.NodeID) (CleanupSummary, error) {
	summary := CleanupSummary{PerNode: make(map[partition.NodeID]proto.CleanupDone, len(engines))}
	for _, node := range engines {
		if err := ep.Send(node, proto.StartCleanup{}); err != nil {
			return summary, err
		}
	}
	timeout := vclock.WallTimeout(5 * time.Minute)
	var failed []string
	for range engines {
		select {
		case done := <-reports:
			summary.PerNode[done.Node] = done
			summary.Results += done.Results
			summary.Tuples += done.Tuples
			elapsed := time.Duration(done.ElapsedNs)
			summary.TotalElapsed += elapsed
			if elapsed > summary.MaxElapsed {
				summary.MaxElapsed = elapsed
			}
			if done.Error != "" {
				failed = append(failed, fmt.Sprintf("%s: %s", done.Node, done.Error))
			}
		case <-timeout:
			return summary, fmt.Errorf("cluster: cleanup timed out with %d/%d reports", len(summary.PerNode), len(engines))
		}
	}
	if len(failed) > 0 {
		return summary, fmt.Errorf("cluster: cleanup failed: %s", strings.Join(failed, "; "))
	}
	return summary, nil
}
