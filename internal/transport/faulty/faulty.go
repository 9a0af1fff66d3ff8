// Package faulty is a chaos middleware over any transport.Network: it
// injects seeded, deterministic message drops, delays, duplications and
// node partitions between Send and delivery, so the relocation
// protocol's retry/abort machinery can be exercised reproducibly.
//
// Fault scheduling runs on the virtual clock: a delayed message is
// re-submitted by a virtual-time timer, which both compresses with
// the experiment's Scale and keeps runs reproducible. Randomized faults
// draw from one PRNG per sending node, seeded from Config.Seed and the
// node name, so the fault sequence a node observes does not depend on
// goroutine interleaving across nodes.
//
// Self-addressed messages (a node's own timers and self-fences) are
// never faulted: they model in-process control flow, not the network.
// With a nil Config.Filter, randomized faults further restrict
// themselves to ControlPlaneFilter — the relocation/spill control
// messages the protocol can recover from — because the data path (Data,
// PauseMarker ordering aside, result shipping, fence messages) has no
// retransmission layer and losing it silently violates the exactness
// invariant the chaos tests assert.
package faulty

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Config parameterizes the injected faults. All probabilities are per
// eligible message in [0,1]; zero disables that fault class.
type Config struct {
	// Seed makes the randomized fault schedule reproducible.
	Seed int64
	// DropProb silently discards an eligible message.
	DropProb float64
	// DupProb delivers an eligible message twice.
	DupProb float64
	// DelayProb defers an eligible message by a uniform virtual
	// duration in [DelayMin, DelayMax]; delayed messages naturally
	// reorder against later undelayed ones (bounded reordering).
	DelayProb float64
	// DelayMin/DelayMax bound the virtual delay (defaults 10ms/100ms).
	DelayMin time.Duration
	DelayMax time.Duration
	// Filter gates which messages randomized faults may touch; nil
	// means ControlPlaneFilter. Partitions and one-shot drops apply
	// regardless of the filter.
	Filter func(from, to partition.NodeID, msg proto.Message) bool
	// Registry, when set, receives injected-fault counters
	// (distq_network_faults_total by kind).
	Registry *obs.Registry
}

// ControlPlaneFilter is the default fault eligibility: the relocation
// and forced-spill control messages plus the self-healing registration
// and statistics reports, and the membership/replication plane (join,
// leave, replica map, state deltas, promotion, demotion). The protocol
// recovers from losing any of these via retry, rebroadcast,
// retransmission, or abort; the data path and the harness fences are
// excluded because they have no retransmission layer.
func ControlPlaneFilter(from, to partition.NodeID, msg proto.Message) bool {
	//distqlint:allow protoexhaustive: fault eligibility predicate over control messages, not a handler
	switch msg.(type) {
	case proto.CptV, proto.PtV, proto.Pause, proto.PauseMarker,
		proto.MarkerAck, proto.SendStates, proto.StateTransfer,
		proto.Installed, proto.Remap, proto.RemapAck,
		proto.ForceSpill, proto.SpillDone,
		proto.RelocAbort, proto.RelocAbortAck,
		proto.StatsReport, proto.Hello,
		proto.JoinRequest, proto.JoinAck, proto.Leave, proto.LeaveAck,
		proto.ReplicaMap, proto.StateDelta, proto.DeltaAck,
		proto.Promote, proto.PromoteAck, proto.Demote, proto.DemoteAck:
		return true
	default:
		return false
	}
}

// Network wraps an inner transport.Network with fault injection.
type Network struct {
	inner transport.Network
	clock vclock.Clock
	cfg   Config

	mu       sync.Mutex
	rngs     map[partition.NodeID]*rand.Rand
	isolated map[partition.NodeID]bool
	parted   map[[2]partition.NodeID]bool
	oneshots []*oneShot

	// done closes on Close: a delayed delivery whose timer fires after
	// it is dropped instead of outliving the network.
	done     chan struct{}
	doneOnce sync.Once
}

// oneShot drops the next remaining messages matching pred.
type oneShot struct {
	remaining int
	pred      func(from, to partition.NodeID, msg proto.Message) bool
}

// New wraps inner with fault injection under the given virtual clock.
func New(inner transport.Network, clock vclock.Clock, cfg Config) *Network {
	if cfg.Filter == nil {
		cfg.Filter = ControlPlaneFilter
	}
	if cfg.DelayMin <= 0 {
		cfg.DelayMin = 10 * time.Millisecond
	}
	if cfg.DelayMax < cfg.DelayMin {
		cfg.DelayMax = 10 * cfg.DelayMin
	}
	if cfg.Registry != nil {
		cfg.Registry.Help("distq_network_faults_total", "injected transport faults, by kind (drop|dup|delay|partition|oneshot)")
	}
	return &Network{
		inner:    inner,
		clock:    clock,
		cfg:      cfg,
		rngs:     make(map[partition.NodeID]*rand.Rand),
		isolated: make(map[partition.NodeID]bool),
		parted:   make(map[[2]partition.NodeID]bool),
		done:     make(chan struct{}),
	}
}

// Attach implements transport.Network.
func (n *Network) Attach(node partition.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.inner.Attach(node, h)
	if err != nil {
		return nil, err
	}
	return &endpoint{net: n, inner: ep}, nil
}

// Close implements transport.Network.
func (n *Network) Close() error {
	n.doneOnce.Do(func() { close(n.done) })
	return n.inner.Close()
}

// Instrument forwards transport metrics registration to the inner
// network when it supports it, so wrapped clusters keep their
// per-message-type counters.
func (n *Network) Instrument(node partition.NodeID, m *transport.Metrics) {
	if instr, ok := n.inner.(transport.Instrumentable); ok {
		instr.Instrument(node, m)
	}
}

// Isolate makes node unreachable in both directions (a crashed or
// partitioned-away machine). Sends involving it are silently dropped —
// like a dead network peer, not an addressing error.
func (n *Network) Isolate(node partition.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[node] = true
}

// Restore undoes Isolate.
func (n *Network) Restore(node partition.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.isolated, node)
}

// Partition cuts the link between a and b in both directions.
func (n *Network) Partition(a, b partition.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parted[pairKey(a, b)] = true
}

// Heal undoes Partition.
func (n *Network) Heal(a, b partition.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parted, pairKey(a, b))
}

// DropMatching arms a deterministic one-shot fault: the next count
// messages matching pred are dropped. Used by the per-message chaos
// scenarios ("drop the first MarkerAck of this run").
func (n *Network) DropMatching(count int, pred func(from, to partition.NodeID, msg proto.Message) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.oneshots = append(n.oneshots, &oneShot{remaining: count, pred: pred})
}

func pairKey(a, b partition.NodeID) [2]partition.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]partition.NodeID{a, b}
}

func (n *Network) count(kind string) {
	if n.cfg.Registry != nil {
		n.cfg.Registry.Counter("distq_network_faults_total", obs.L("kind", kind)).Inc()
	}
}

// fault classifies what should happen to one message.
type fault int

const (
	deliver fault = iota
	drop
	duplicate
	delay
)

// decide applies isolation, one-shot drops, and the seeded randomized
// faults, returning the action and (for delay) the virtual duration.
func (n *Network) decide(from, to partition.NodeID, msg proto.Message) (fault, time.Duration) {
	if from == to {
		return deliver, 0 // self-sends model in-process control flow
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isolated[from] || n.isolated[to] || n.parted[pairKey(from, to)] {
		n.count("partition")
		return drop, 0
	}
	for _, o := range n.oneshots {
		if o.remaining > 0 && o.pred(from, to, msg) {
			o.remaining--
			n.count("oneshot")
			return drop, 0
		}
	}
	if !n.cfg.Filter(from, to, msg) {
		return deliver, 0
	}
	rng := n.rngs[from]
	if rng == nil {
		h := fnv.New64a()
		_, _ = h.Write([]byte(from))
		rng = rand.New(rand.NewSource(n.cfg.Seed ^ int64(h.Sum64())))
		n.rngs[from] = rng
	}
	roll := rng.Float64()
	switch {
	case roll < n.cfg.DropProb:
		n.count("drop")
		return drop, 0
	case roll < n.cfg.DropProb+n.cfg.DupProb:
		n.count("dup")
		return duplicate, 0
	case roll < n.cfg.DropProb+n.cfg.DupProb+n.cfg.DelayProb:
		n.count("delay")
		span := int64(n.cfg.DelayMax - n.cfg.DelayMin)
		d := n.cfg.DelayMin
		if span > 0 {
			d += time.Duration(rng.Int63n(span + 1))
		}
		return delay, d
	default:
		return deliver, 0
	}
}

// endpoint wraps one attached node.
type endpoint struct {
	net   *Network
	inner transport.Endpoint
}

// Node implements transport.Endpoint.
func (e *endpoint) Node() partition.NodeID { return e.inner.Node() }

// FlushOutbound implements transport.OutboundFlusher by delegating to
// the wrapped endpoint, so fence-point flushes still reach a coalescing
// inner transport through the fault injector.
func (e *endpoint) FlushOutbound() { transport.FlushOutbound(e.inner) }

// Close implements transport.Endpoint.
func (e *endpoint) Close() error { return e.inner.Close() }

// Send implements transport.Endpoint, applying the fault schedule.
func (e *endpoint) Send(to partition.NodeID, msg proto.Message) error {
	from := e.inner.Node()
	action, d := e.net.decide(from, to, msg)
	switch action {
	case drop:
		return nil
	case duplicate:
		if err := e.inner.Send(to, msg); err != nil {
			return err
		}
		return e.inner.Send(to, msg)
	case delay:
		e.net.clock.AfterFunc(d, func() {
			select {
			case <-e.net.done:
				// The network closed while the message was in flight: a
				// drop, which the fault model already permits.
				return
			default:
			}
			// A delayed message that can no longer be delivered (the
			// receiver detached meanwhile) is a drop, which the fault
			// model already permits for eligible messages.
			//distqlint:allow uncheckederr: delayed delivery has no caller to return to; loss is within the fault model
			e.inner.Send(to, msg)
		})
		return nil
	default:
		return e.inner.Send(to, msg)
	}
}
