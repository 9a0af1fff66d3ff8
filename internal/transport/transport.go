// Package transport moves proto messages between cluster nodes. Two
// implementations share one contract:
//
//   - inproc: goroutine/channel based, for tests and fast experiments;
//   - tcp: real sockets on localhost, for the multi-process cluster
//     binaries. Every connection opens with one hello and then carries
//     [len][kind][body] frames in the proto wire codec, with write
//     coalescing and credit-based backpressure on the data path
//     (PROTOCOL.md "Wire format").
//
// Contract: delivery is FIFO per (sender, receiver) pair, and each node's
// handler is invoked serially (one message at a time), which gives every
// node the single-threaded execution model the engines rely on. The
// relocation protocol's pause-marker barrier depends on the FIFO property.
// Write coalescing preserves it: coalesced frames only ever ride the same
// connection, and any non-coalescable frame flushes the queue ahead of
// itself.
//
// A sender writes a sent payload again only over a PayloadCopier (TCP):
// the in-process transport hands byte slices to the receiver as they are.
package transport

import (
	"repro/internal/partition"
	"repro/internal/proto"
)

// Handler consumes one inbound message. Handlers run serially per node.
type Handler func(from partition.NodeID, msg proto.Message)

// Endpoint is a node's attachment to the network.
type Endpoint interface {
	// Node reports the endpoint's node ID.
	Node() partition.NodeID
	// Send delivers msg to the named node. Send may block for
	// backpressure but not for the receiver's processing of msg.
	Send(to partition.NodeID, msg proto.Message) error
	// Close detaches the endpoint; pending messages may be dropped.
	Close() error
}

// OutboundFlusher is the optional Endpoint interface for transports
// that coalesce small frames. FlushOutbound pushes every buffered frame
// to the wire before returning; fence points (an engine acknowledging a
// Drain) call it so the acknowledgement cannot overtake coalesced data
// frames parked for other destinations.
type OutboundFlusher interface {
	FlushOutbound()
}

// FlushOutbound flushes ep's coalesced frames if its transport
// coalesces at all; a no-op otherwise.
func FlushOutbound(ep Endpoint) {
	if f, ok := ep.(OutboundFlusher); ok {
		f.FlushOutbound()
	}
}

// PayloadCopier marks an endpoint whose Send copies msg before it
// returns. A wrapper that may hold a message must not forward it.
type PayloadCopier interface{ CopiesPayload() }

// CopiesOnSend reports whether ep's Send copies msg before returning.
func CopiesOnSend(ep Endpoint) bool {
	_, ok := ep.(PayloadCopier)
	return ok
}

// AddNode extends net's node directory with node's address if it has one
// (TCP: AddNode); networks that route by registration (in-process)
// ignore it.
func AddNode(net Network, node partition.NodeID, addr string) {
	if d, ok := net.(interface {
		AddNode(partition.NodeID, string)
	}); ok {
		d.AddNode(node, addr)
	}
}

// Network creates endpoints. Implementations: NewInproc, NewTCP.
type Network interface {
	// Attach registers node with the network and starts delivering its
	// inbound messages to h.
	Attach(node partition.NodeID, h Handler) (Endpoint, error)
	// Close shuts the whole network down.
	Close() error
}
