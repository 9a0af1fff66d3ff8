package spill

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/partition"
)

// Result summarizes one executed spill process.
type Result struct {
	Groups []partition.ID
	Bytes  int64
	Tuples int
}

// Manager executes state spills against one join operator instance: it
// asks the configured policy for victims, extracts their resident
// generation, and persists the segments. It is driven from the engine's
// single execution goroutine and is not otherwise synchronized.
type Manager struct {
	op     *join.Operator
	store  Store
	policy core.Policy
}

// NewManager returns a Manager spilling from op into store using policy.
func NewManager(op *join.Operator, store Store, policy core.Policy) *Manager {
	return &Manager{op: op, store: store, policy: policy}
}

// Spill pushes at least amount bytes of resident state to the store (or
// everything resident, if less) and returns what was spilled. A zero or
// negative amount is a no-op. A group whose write fails stays resident
// as it was (join.Operator.SpillTo), and the spill stops there: the
// result then names exactly the groups persisted before the failure,
// alongside the error.
func (m *Manager) Spill(amount int64) (Result, error) {
	var res Result
	if amount <= 0 {
		return res, nil
	}
	var err error
	for _, id := range m.policy.SelectVictims(m.op.Stats(), amount) {
		snap, werr := m.op.SpillTo(id, m.store.Write)
		if werr != nil {
			err = fmt.Errorf("spill: persist group %d: %w", id, werr)
			break
		}
		if snap == nil {
			continue
		}
		res.Groups = append(res.Groups, id)
		res.Bytes += snap.MemBytes()
		res.Tuples += snap.TupleCount()
	}
	return res, err
}
