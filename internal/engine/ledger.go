package engine

import (
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
)

// ledger is the engine's half of the plan table (PROTOCOL.md "Plans,
// steps, escalation"), with one rule: a step already answered re-sends
// its cached reply, and a step for a run this engine has moved past is
// dropped — no reply, no side effect. Foreground steps (CptV, SendStates,
// RelocAbort, ForceSpill, Promote, and the StateTransfer a sender relays)
// carry the id of the coordinator's one foreground run, and ids only grow:
// one entry is the whole history, and a lower id is a retired run's.
// Demote, the one background step, interleaves its ids with those, so
// arrived records per group the id of the run that brought it here (0 if
// it was always here), and a Demote drops only groups that arrived before.
type ledger struct {
	id    uint64
	stage stage
	// reply answers the step that moved the entry to stage (a shipment's:
	// its header). to and images are the relocation sent under id.
	reply   proto.Message
	to      partition.NodeID
	images  []*spill.Image
	arrived map[partition.ID]uint64
}

// stage is how far this engine got in the current run.
type stage uint8

const (
	fresh     stage = iota // nothing answered under the id yet
	chose                  // sender: PtV sent, the offered groups still here
	shipped                // sender: groups taken and shipped
	installed              // receiver: the transfer installed
	aborted                // RelocAbort answered (reply nil: a failed ship awaits it)
	done                   // ForceSpill or Promote answered
)

// current admits a foreground step under id: a newer id starts a new
// entry (the last one's images go), a lower one is a retired run's.
func (l *ledger) current(id uint64) bool {
	if id > l.id {
		*l = ledger{id: id, arrived: l.arrived}
	}
	return id == l.id
}

// shipment is the StateTransfer of the images the entry keeps.
func (l *ledger) shipment() proto.StateTransfer {
	m := l.reply.(proto.StateTransfer)
	for _, im := range l.images {
		m.Images = append(m.Images, spill.AppendImage(nil, im))
	}
	return m
}

// step admits a foreground step under id that moves the entry from stage
// from to stage to, and reports whether to run it. Not run: a repeat of
// the step answered (its reply is re-sent; err is the send's), or a step
// for a run or stage this engine has moved past (dropped).
func (e *Engine) step(id uint64, from, to stage) (bool, error) {
	l := &e.ledger
	switch {
	case !l.current(id) || l.stage != from && l.stage != to:
		return false, nil
	case l.stage == from:
		return true, nil
	case to == shipped:
		return false, e.ep.Send(l.to, l.shipment())
	}
	return false, e.ep.Send(e.cfg.Coordinator, l.reply)
}

// answer moves the entry to st and sends the coordinator reply, its answer.
func (e *Engine) answer(st stage, reply proto.Message) error {
	e.ledger.stage, e.ledger.reply = st, reply
	return e.ep.Send(e.cfg.Coordinator, reply)
}

// mode is the engine's execution mode (paper Table 2) as the ledger has
// it: relocating from the PtV that offered groups to the SendStates that
// takes them.
func (e *Engine) mode() core.Mode {
	if l := &e.ledger; l.stage == chose && len(l.reply.(proto.PtV).Partitions) > 0 {
		return core.RelocateMode
	}
	return core.NormalMode
}
