// Package proto mirrors the message-vocabulary shapes the proto-side
// check enforces: traced control messages, //distq:plane data
// exemptions, and every directive failure mode.
package proto

import "repro/internal/obs"

// Message is any registered value.
type Message any

// Data is the data-plane tuple batch: exempt, and barred from Trace.
//
//distq:plane data
type Data struct {
	Payload    []byte
	MapVersion uint64
}

// ResultCount declares itself data-plane yet smuggles a trace.
//
//distq:plane data
type ResultCount struct { // want `proto\.ResultCount is data-plane \(//distq:plane data\) but carries a Trace field`
	Delta uint64
	Trace obs.TraceContext
}

// Installed is a control-plane message that forgot its Trace field —
// the pre-PR-7 vocabulary shape.
type Installed struct { // want `proto\.Installed carries no Trace obs\.TraceContext field`
	Epoch uint64
	Node  uint64
}

// Tick names a plane nobody knows.
//
//distq:plane control
type Tick struct { // want `proto\.Tick: unknown plane "control" in //distq:plane directive`
	Kind  string
	Trace obs.TraceContext
}

// Draft carries a plane directive but never travels the wire.
//
//distq:plane data
type Draft struct { // want `proto\.Draft carries a //distq:plane directive but is missing from the wire-kind table`
	Note string
}

// CptV asks the sender to compute the partitions to move.
type CptV struct {
	Epoch uint64
	Trace obs.TraceContext
}

// PtV returns the chosen partitions.
type PtV struct {
	Epoch      uint64
	Node       uint64
	Partitions []uint64
	Trace      obs.TraceContext
}

// MarkerAck reports the sender drained its data path.
type MarkerAck struct {
	Epoch uint64
	Node  uint64
	Trace obs.TraceContext
}

// SendStates orders the state transfer.
type SendStates struct {
	Epoch    uint64
	Receiver uint64
	Trace    obs.TraceContext
}

// StateTransfer carries the moving groups.
type StateTransfer struct {
	Epoch    uint64
	Resident [][]byte
	Trace    obs.TraceContext
}

type wireCodec struct{}

func bulk[T any]() wireCodec                  { return wireCodec{} }
func control[T any](func(*T) []any) wireCodec { return wireCodec{} }

var wireKinds = [...]wireCodec{
	1: bulk[Data](),
	2: bulk[StateTransfer](),
	3: control(func(m *ResultCount) []any { return nil }),
	4: control(func(m *Installed) []any { return nil }),
	5: control(func(m *Tick) []any { return nil }),
	6: control(func(m *CptV) []any { return nil }),
	7: control(func(m *PtV) []any { return nil }),
	8: control(func(m *MarkerAck) []any { return nil }),
	9: control(func(m *SendStates) []any { return nil }),
}
