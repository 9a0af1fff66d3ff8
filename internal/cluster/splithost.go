package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/split"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// SplitHost is the generator node without the generator: the endpoint
// hosting the split operators (the Router, whose Pause/Remap/MemberAddr
// control it serves) and the end-of-run exchanges issued from that node —
// the quiesce and drain fences, and the cleanup phase where no
// application server process drives it. Where the tuples come from — the
// harness's paced workload, a facade caller's Ingest, a recorded trace —
// is its user's business.
type SplitHost struct {
	ep     transport.Endpoint
	router *split.Router
	log    *obs.Logger

	// drainAcks and cleanups are buffered (64: one entry per engine and
	// room to spare) so the handler can park a fence's acks, stale and
	// duplicated ones included, and the engines' cleanup reports while
	// nobody is reading them.
	drainAcks chan proto.DrainAck
	quiesced  chan struct{}
	cleanups  chan proto.CleanupDone
	token     uint64

	// Wall-clock guards of the two fences; fields so tests can shrink them.
	quiesceTimeout time.Duration
	drainTimeout   time.Duration
}

// NewSplitHost attaches the split host to net, routing by a snapshot of
// the initial partition map m. On a directory-based network (TCP) it
// extends the directory with every dynamically joined engine's address
// the coordinator disseminates.
func NewSplitHost(net transport.Network, clock vclock.Clock, m *partition.Map) (*SplitHost, error) {
	h := &SplitHost{
		log:            obs.NewLogger(obs.LoggerConfig{Node: string(GeneratorNode), Kind: "generator", Now: clock.Now}),
		drainAcks:      make(chan proto.DrainAck, 64),
		quiesced:       make(chan struct{}, 1),
		cleanups:       make(chan proto.CleanupDone, 64),
		quiesceTimeout: 30 * time.Second,
		drainTimeout:   60 * time.Second,
	}
	// The router needs the endpoint, so for a few instructions the node
	// is attached without one; the coordinator first addresses it from an
	// adaptation, an lb tick after the engines have reported.
	ep, err := net.Attach(GeneratorNode, h.handle)
	if err != nil {
		return nil, err
	}
	h.ep = ep
	owner, version := m.Snapshot()
	h.router, err = split.New(ep, CoordinatorNode, partition.NewFunc(m.N()), owner, version, split.DefaultBatchSize)
	if err != nil {
		return nil, err
	}
	h.router.DirectoryExtender(func(node partition.NodeID, addr string) { transport.AddNode(net, node, addr) })
	return h, nil
}

// Router exposes the split operators: Route and Flush feed the cluster.
func (h *SplitHost) Router() *split.Router { return h.router }

// Logger exposes the node's structured logger (output mirroring).
func (h *SplitHost) Logger() *obs.Logger { return h.log }

func (h *SplitHost) handle(from partition.NodeID, msg proto.Message) {
	if handled, err := h.router.HandleControl(msg); handled {
		if err != nil {
			h.log.Error("router_control_error", obs.FErr(err))
		}
		return
	}
	//distq:handles generator
	switch m := msg.(type) {
	case proto.DrainAck:
		h.drainAcks <- m
	case proto.QuiesceAck:
		select {
		case h.quiesced <- struct{}{}:
		default:
		}
	case proto.CleanupDone:
		h.cleanups <- m
	default:
		h.log.Warn("unexpected_message", obs.F("type", fmt.Sprintf("%T", msg)), obs.F("from", string(from)))
	}
}

// Quiesce fences the coordinator: no further adaptations start, and any
// in-flight relocation (whose remap may still flush buffered tuples onto
// the data path) has completed or aborted.
func (h *SplitHost) Quiesce() error {
	if err := h.ep.Send(CoordinatorNode, proto.Quiesce{}); err != nil {
		return err
	}
	select {
	case <-h.quiesced:
		return nil
	case <-vclock.WallTimeout(h.quiesceTimeout):
		return fmt.Errorf("cluster: quiesce timed out waiting for %s", CoordinatorNode)
	}
}

// Drain fences the data path. Drain{token} travels behind all data on
// the FIFO (split host, engine) pairs; each engine flushes its results
// and passes the Drain on to the application server behind them on its
// own FIFO link, and acknowledges once the application server has
// answered. So every ack proves its engine processed every tuple and the
// application server recorded every result of it (PROTOCOL.md
// "End-of-run fencing"). An engine the Drain cannot be sent to is dead
// to this host — its unprocessed input is gone with it — and is skipped.
func (h *SplitHost) Drain(engines []partition.NodeID) error {
	if err := h.router.Flush(); err != nil {
		return err
	}
	h.token++
	pending := make(map[partition.NodeID]bool, len(engines))
	for _, node := range engines {
		if err := h.ep.Send(node, proto.Drain{Token: h.token}); err != nil {
			h.log.Warn("drain_skipped", obs.F("engine", string(node)), obs.FErr(err))
			continue
		}
		pending[node] = true
	}
	timeout := vclock.WallTimeout(h.drainTimeout)
	for len(pending) > 0 {
		select {
		case ack := <-h.drainAcks:
			// A per-node set, not a count: a duplicated ack must not stand
			// in for an engine still draining, nor a stale token's for this
			// fence's.
			if ack.Token == h.token {
				delete(pending, ack.Node)
			}
		case <-timeout:
			return fmt.Errorf("cluster: drain timed out waiting for %s", nodeList(pending))
		}
	}
	return nil
}

// RunCleanup drives the disk phase from this node (see gatherCleanup).
func (h *SplitHost) RunCleanup(engines []partition.NodeID) (CleanupSummary, error) {
	return gatherCleanup(h.ep, h.cleanups, engines)
}

// nodeList renders a set of nodes in name order.
func nodeList(set map[partition.NodeID]bool) string {
	names := make([]string, 0, len(set))
	for node := range set {
		names = append(names, string(node))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
