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
// cleanup phase. The public distq facade reuses it.
type AppServer struct {
	clock       vclock.Clock
	ep          transport.Endpoint
	materialize bool
	log         *obs.Logger

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
// use. onResult, when non-nil, receives every materialized result.
func NewAppServer(clock vclock.Clock, materialize bool, onResult func(proto.Phase, tuple.Result)) *AppServer {
	a := &AppServer{
		onResult:    onResult,
		clock:       clock,
		materialize: materialize,
		log:         obs.NewLogger(obs.LoggerConfig{Node: string(AppServerNode), Kind: "appserver", Now: clock.Now}),
		throughput:  stats.NewSeries("output"),
		cleanupCh:   make(chan proto.CleanupDone, 64),
	}
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
	return nil
}

func (a *AppServer) handle(from partition.NodeID, msg proto.Message) {
	//distq:handles appserver
	switch m := msg.(type) {
	case proto.ResultCount:
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
	case proto.Drain:
		// Fence: all results enqueued before this message are processed.
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
	a.mu.Lock()
	defer a.mu.Unlock()
	buf := m.Payload
	for len(buf) > 0 {
		r, used, err := tuple.DecodeResult(buf)
		if err != nil {
			return err
		}
		buf = buf[used:]
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
		if a.onResult != nil {
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

// RunCleanup orders every engine to run its disk phase and gathers the
// reports. Engines clean up concurrently, as the machines of the paper's
// cluster do.
func (a *AppServer) RunCleanup(engines []partition.NodeID) (CleanupSummary, error) {
	summary := CleanupSummary{PerNode: make(map[partition.NodeID]proto.CleanupDone, len(engines))}
	for _, node := range engines {
		if err := a.ep.Send(node, proto.StartCleanup{}); err != nil {
			return summary, err
		}
	}
	timeout := vclock.WallTimeout(120 * time.Second)
	var failed []string
	for range engines {
		select {
		case done := <-a.cleanupCh:
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
