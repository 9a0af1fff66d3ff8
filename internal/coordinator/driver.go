package coordinator

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// run is one adaptation in flight: a plan, a cursor into it, and the
// step awaiting its ack. A decision fills in what (plan), who (sender,
// receiver, parts — a relocation learns its parts from the PtV), how
// much (amount, lowProd) and why (reason); the rest is the driver's.
type run struct {
	plan             *plan
	sender, receiver partition.NodeID
	parts            []partition.ID
	amount           int64
	lowProd          bool
	reason           string

	// id is the run's own: every step is sent under it, acks and
	// deadlines are matched on it, and nothing else moves it.
	id        uint64
	row       int
	started   vclock.Time
	span      *obs.Span
	phaseSpan *obs.Span

	// The awaited step: where it went, the message re-sent on retry, the
	// re-sends so far, the armed deadline's sequence — and acked, the
	// last ack the run accepted.
	dest     partition.NodeID
	msg      proto.Message
	attempts int
	seq      uint64
	acked    proto.Message
}

func (r *run) step() *step { return &r.plan.steps[r.row] }

// nextID draws a fresh id: one per run and one per unawaited watchdog
// pause. Drawing one never disturbs a run in flight.
func (c *Coordinator) nextID() uint64 {
	c.epoch++
	return c.epoch
}

// peer resolves a step's role to a node.
func (c *Coordinator) peer(who role, r *run) partition.NodeID {
	switch who {
	case sender:
		return r.sender
	case receiver:
		return r.receiver
	default:
		return c.cfg.SplitHost
	}
}

// launch starts a run: the foreground adaptation, or a background one
// beside it.
func (c *Coordinator) launch(r *run) {
	now := c.clock.Now()
	r.id, r.row, r.started = c.nextID(), -1, now
	c.runs[r.id] = r
	if !r.plan.background {
		c.fg = r
	}
	if r.plan.begin != nil {
		r.plan.begin(c, r, now)
	}
	c.advance(r, now)
	c.settle()
}

// advance sends the run's next step, committing the map on the way past
// the plan's commit point; past the last row the run is done.
func (c *Coordinator) advance(r *run, now vclock.Time) {
	for r.row++; r.row < len(r.plan.steps); r.row++ {
		st := r.step()
		if st.to == splitHost && len(r.parts) == 0 {
			continue // nothing was paused: nothing to tell the split host
		}
		if st.commits && !c.commit(r, now) {
			return
		}
		tr := r.span.Context() // zero for a run without a span
		if st.sent != "" {
			r.span.Step(st.sent, now)
		}
		if st.phase != "" {
			r.phaseSpan = c.tracer.StartChild(st.phase, string(c.cfg.Node), now, tr)
		}
		r.dest, r.msg, r.attempts = c.peer(st.to, r), st.build(c, r, tr), 0
		c.transmit(r)
		return
	}
	if r.plan.done != nil {
		r.plan.done(c, r, now)
	}
	c.retire(r)
}

// transmit is the one place an awaited step leaves the coordinator —
// first send and re-send alike — and the one place its deadline is
// armed: RelocTimeout, if enabled, doubled per re-send. Arming always
// invalidates the run's earlier timer.
func (c *Coordinator) transmit(r *run) {
	r.seq++
	if c.cfg.RelocTimeout > 0 {
		c.after(c.cfg.RelocTimeout<<r.attempts, proto.RelocTimeout{Epoch: r.id, Seq: r.seq})
	}
	if err := c.ep.Send(r.dest, r.msg); err != nil {
		c.fail(fmt.Errorf("%s epoch %d: %s to %s: %w", r.plan.name, r.id, r.step().name, r.dest, err))
	}
}

// ack matches an incoming ack to the run awaiting it — by the run's id,
// the ack's type and the node that must send it — and advances that
// run. Anything else is stale, duplicated or foreign.
func (c *Coordinator) ack(m proto.Message, id uint64, from partition.NodeID) {
	r := c.runs[id]
	if r == nil {
		return
	}
	st := r.step()
	if reflect.TypeOf(m) != reflect.TypeOf(st.awaits) || from != c.peer(st.from, r) {
		return
	}
	now := c.clock.Now()
	if st.acked != "" {
		r.span.Step(st.acked, now)
	}
	r.phaseSpan.End(now)
	r.phaseSpan, r.acked = nil, m
	if st.onAck == nil || st.onAck(c, r, m, now) {
		c.advance(r, now)
	}
}

// onDeadline handles an await deadline: re-send the pending step while
// retries remain, then escalate as its row says.
func (c *Coordinator) onDeadline(m proto.RelocTimeout) {
	r := c.runs[m.Epoch]
	if r == nil || m.Seq != r.seq {
		return // the step was acked, or re-armed since
	}
	now, st := c.clock.Now(), r.step()
	if r.attempts < c.cfg.RelocMaxRetries {
		r.attempts++
		c.mRetries.Inc()
		c.transmit(r)
		return
	}
	esc := st.exhaust
	if esc == restoreSplitHost && len(r.parts) == 0 {
		esc = giveUp // nothing was paused
	}
	err := fmt.Errorf("%s epoch %d: %s to %s unacknowledged after %d sends: %s", r.plan.name, r.id, st.name, r.dest, r.attempts+1, esc)
	c.log.Warn("step_exhausted", obs.F("plan", r.plan.name), obs.F("step", st.name), obs.FUint("epoch", r.id),
		obs.F("peer", string(r.dest)), obs.F("escalation", esc.String()))
	reason := strings.TrimPrefix(st.name, "wait_") + " timeout"
	switch esc {
	case abortSender, probeReceiver:
		r.phaseSpan.Abort(now, reason)
		r.phaseSpan = nil
		r.span.SetAttr("abort_reason", reason)
		r.plan, r.row = &rollbackPlan, -1
		if esc == abortSender {
			r.row = 0 // nothing shipped: the rollback starts past the probe
		}
		c.advance(r, now)
	case restoreSplitHost: // surfaced, but not unresolved: the restore still happens
		c.fail(err)
		c.advance(r, now)
	case skipStep:
		c.mUnresolved.Inc()
		c.fail(err)
		c.advance(r, now)
	case giveUp:
		c.mUnresolved.Inc()
		c.fail(err)
		c.abort(r, now, reason)
	}
}

// commit moves the run's groups to their new owner in the master map —
// the plan's commit point: from here the run only moves forward.
func (c *Coordinator) commit(r *run, now vclock.Time) bool {
	if _, err := c.cfg.Map.Move(r.parts, r.receiver); err != nil {
		c.fail(fmt.Errorf("%s epoch %d: map commit: %w", r.plan.name, r.id, err))
		c.abort(r, now, "map commit: "+err.Error())
		return false
	}
	if r.plan.committed != nil {
		r.plan.committed(c, r, now)
	}
	return true
}

// abort ends a run short of its plan: spans close aborted, and a
// foreground adaptation is counted, logged and recorded as aborted.
func (c *Coordinator) abort(r *run, now vclock.Time, reason string) {
	r.phaseSpan.Abort(now, reason)
	r.span.Abort(now, reason)
	if !r.plan.background {
		c.log.Warn("relocation_aborted", obs.FUint("epoch", r.id), obs.F("reason", reason))
		c.mAborted.Inc()
	}
	c.retire(r)
}

// retire takes a run out of flight (idempotent: a rollback's done hook
// aborts, which retires too); its pending deadline dies with it,
// onDeadline no longer finds the id.
func (c *Coordinator) retire(r *run) {
	delete(c.runs, r.id)
	if c.fg == r {
		c.fg = nil
	}
	c.settle()
}

// settle refreshes the accessor-visible counts of background work and
// answers a pending quiesce once nothing at all is in flight: acking
// while a revived engine's partitions are still paused would let the
// caller fence the data path past their buffered tuples.
func (c *Coordinator) settle() {
	var resumes, demotes int64
	for _, r := range c.runs {
		switch r.plan {
		case &resumePlan:
			resumes++
		case &demotePlan:
			demotes++
		}
	}
	c.resumeCount.Store(resumes)
	c.demoteCount.Store(demotes + int64(len(c.pendingDemotes)))
	if c.quiesceWaiter == "" || len(c.runs) != 0 {
		return
	}
	waiter := c.quiesceWaiter
	c.quiesceWaiter = ""
	if err := c.ep.Send(waiter, proto.QuiesceAck{}); err != nil {
		c.fail(fmt.Errorf("quiesce ack: %w", err))
	}
}
