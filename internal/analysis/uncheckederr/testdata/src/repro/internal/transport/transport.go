// Package transport is a miniature of the real package: the Endpoint
// interface plus one concrete implementation, both with the guarded
// Send signature.
package transport

import (
	"repro/internal/partition"
	"repro/internal/proto"
)

type Endpoint interface {
	Node() partition.NodeID
	Send(to partition.NodeID, msg proto.Message) error
	Close() error
}

// Chan is a concrete endpoint; calls through it are guarded too.
type Chan struct{}

func (c *Chan) Node() partition.NodeID                            { return "" }
func (c *Chan) Send(to partition.NodeID, msg proto.Message) error { return nil }
func (c *Chan) Close() error                                      { return nil }
