package transport

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
)

// inprocQueueDepth bounds each node's inbound queue; senders block when a
// receiver falls this far behind, providing backpressure like a TCP
// window would.
const inprocQueueDepth = 8192

type envelope struct {
	from partition.NodeID
	msg  proto.Message
	// size is the message's wire footprint: exact frame bytes on TCP,
	// approxSize on the in-process transport. Only used for metrics.
	size int
	// kind is the frame's wire kind on TCP, for metrics; the in-process
	// transport leaves it WireNone.
	kind proto.WireKind
	// buf, when non-nil, is the pooled TCP frame buffer the message's
	// payload slices alias; the dispatcher recycles it once the handler
	// returns. The in-process transport never sets it (messages are
	// handed by reference and must not be pooled).
	buf *[]byte
	// credited marks a data-path frame that consumed sender credit; the
	// TCP dispatcher turns its consumption into a grant.
	credited bool
}

// Inproc is an in-process Network: each attached node gets a buffered
// inbound queue drained by one dispatcher goroutine, so handlers run
// serially and delivery is FIFO per sender-receiver pair (in fact, FIFO
// in global enqueue order per receiver).
type Inproc struct {
	mu      sync.RWMutex
	nodes   map[partition.NodeID]*inprocEndpoint
	metrics map[partition.NodeID]*Metrics
	closed  bool
}

// NewInproc returns an empty in-process network.
func NewInproc() *Inproc {
	return &Inproc{
		nodes:   make(map[partition.NodeID]*inprocEndpoint),
		metrics: make(map[partition.NodeID]*Metrics),
	}
}

// Instrument implements Instrumentable: future Attach(node, ...) records
// transport metrics for node into m.
func (n *Inproc) Instrument(node partition.NodeID, m *Metrics) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics[node] = m
}

type inprocEndpoint struct {
	net     *Inproc
	node    partition.NodeID
	queue   chan envelope
	done    chan struct{}
	metrics *Metrics

	// sendMu guards queue against close-during-send: senders hold the
	// read lock while enqueueing, Close takes the write lock to flip
	// dead before closing the channel.
	sendMu sync.RWMutex
	dead   bool
	closed sync.Once
}

// Attach implements Network.
func (n *Inproc) Attach(node partition.NodeID, h Handler) (Endpoint, error) {
	if node == "" {
		return nil, fmt.Errorf("transport: empty node id")
	}
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %s", node)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if _, ok := n.nodes[node]; ok {
		return nil, fmt.Errorf("transport: node %s already attached", node)
	}
	ep := &inprocEndpoint{
		net:     n,
		node:    node,
		queue:   make(chan envelope, inprocQueueDepth),
		done:    make(chan struct{}),
		metrics: n.metrics[node],
	}
	n.nodes[node] = ep
	go func() {
		for env := range ep.queue {
			ep.metrics.received(env.msg, env.size)
			h(env.from, env.msg)
		}
		close(ep.done)
	}()
	return ep, nil
}

// Close implements Network.
func (n *Inproc) Close() error {
	n.mu.Lock()
	eps := make([]*inprocEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// Node implements Endpoint.
func (e *inprocEndpoint) Node() partition.NodeID { return e.node }

// Send implements Endpoint.
func (e *inprocEndpoint) Send(to partition.NodeID, msg proto.Message) error {
	// Read our own flag before taking dst's lock, which is this lock
	// again on a self-send.
	e.sendMu.RLock()
	closed := e.dead
	e.sendMu.RUnlock()
	if closed {
		return fmt.Errorf("transport: endpoint %s closed", e.node)
	}
	e.net.mu.RLock()
	dst, ok := e.net.nodes[to]
	e.net.mu.RUnlock()
	if !ok {
		return fmt.Errorf("transport: unknown node %s", to)
	}
	var start time.Time
	size := 0
	if e.metrics != nil {
		start = time.Now()
		size = approxSize(msg)
	}
	dst.sendMu.RLock()
	defer dst.sendMu.RUnlock()
	if dst.dead {
		return fmt.Errorf("transport: node %s detached", to)
	}
	dst.queue <- envelope{from: e.node, msg: msg, size: size}
	if e.metrics != nil {
		e.metrics.sent(msg, size, time.Since(start))
	}
	return nil
}

// Close implements Endpoint.
func (e *inprocEndpoint) Close() error {
	e.closed.Do(func() {
		e.net.mu.Lock()
		delete(e.net.nodes, e.node)
		e.net.mu.Unlock()
		// Block new senders, wait out in-flight ones, then close.
		e.sendMu.Lock()
		e.dead = true
		e.sendMu.Unlock()
		close(e.queue)
		<-e.done
	})
	return nil
}
