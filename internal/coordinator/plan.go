package coordinator

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// An adaptation is data: a plan is an ordered list of steps, each one
// awaited exchange — send a message, await its ack — and the driver
// (driver.go) runs every plan the same way. This file is the whole
// table; PROTOCOL.md "Plans, steps, escalation" mirrors it and
// TestProtocolPlanTable fails when the two differ.

// role names a step's peer relative to the run it belongs to.
type role int

const (
	// sender is the engine whose ownership the run ends or confirms: a
	// relocation's sender, a forced spill's target, a promotion's dead
	// victim, the engine a resume or demote is about.
	sender role = iota
	// receiver is the engine the run's groups go to.
	receiver
	splitHost
)

// escalation is what the driver does with a step whose retries ran out.
type escalation int

const (
	// abortSender rolls the relocation back through its sender; nothing
	// has left the sender yet.
	abortSender escalation = iota
	// probeReceiver asks the receiver whether the transfer landed: its
	// answer decides between commit-forward and rollback.
	probeReceiver
	// restoreSplitHost carries on to the restore Remap without the
	// sender's abort ack, so paused partitions are never parked behind a
	// slow peer; with nothing paused it gives up.
	restoreSplitHost
	// skipStep surfaces the silent peer as unresolved and carries on
	// with the rest of the plan.
	skipStep
	// giveUp ends the run as unresolved.
	giveUp
)

var escalationNames = [...]string{"abort sender", "probe receiver", "restore split host", "skip step", "give up"}

func (e escalation) String() string { return escalationNames[e] }

// step is one row of a plan.
type step struct {
	// name labels the step in the step_exhausted log entry, errors and
	// the PROTOCOL.md table.
	name string
	// to receives the message build makes; from must send the ack (they
	// differ where the ack is relayed: the Pause's marker comes back
	// from the sender, the shipped state's Installed from the receiver).
	to, from role
	build    func(c *Coordinator, r *run, tr obs.TraceContext) proto.Message
	// awaits is a zero value of the ack's type.
	awaits proto.Message
	// sent and acked are the span steps marked on the run's span, phase
	// the await-phase child span open while the step is pending.
	sent, acked, phase string
	// commits marks the first step after the plan's commit point: the
	// master map moves just before it is sent, and from then on the run
	// only goes forward.
	commits bool
	exhaust escalation
	// onAck, if set, applies what the ack decides; false means it ended
	// the run.
	onAck func(c *Coordinator, r *run, m proto.Message, now vclock.Time) bool
}

// hook is plan-specific bookkeeping around the driver's work.
type hook func(c *Coordinator, r *run, now vclock.Time)

// plan is one kind of adaptation.
type plan struct {
	name string
	// background plans run beside the one foreground adaptation.
	background bool
	steps      []step
	// begin opens the run's span and logs its start; committed runs
	// right after the map commit; done closes a run whose last step was
	// acked or skipped. Each may be nil.
	begin, committed, done hook
}

func remap(owner role) func(*Coordinator, *run, obs.TraceContext) proto.Message {
	return func(c *Coordinator, r *run, tr obs.TraceContext) proto.Message {
		return proto.Remap{Epoch: r.id, Partitions: r.parts, Owner: c.peer(owner, r), Version: c.cfg.Map.Version(), Trace: tr}
	}
}

func relocAbort(_ *Coordinator, r *run, tr obs.TraceContext) proto.Message {
	return proto.RelocAbort{Epoch: r.id, Trace: tr}
}

// ship is step 5/6; a directed ship (the drain of a leaver) tells the
// sender that no CptV/PtV round chose the partitions.
func ship(directed bool) step {
	return step{name: "wait_installed", to: sender, from: receiver, awaits: proto.Installed{},
		sent: obs.StepSendStates, acked: obs.StepInstalled, phase: obs.SpanRelocWaitInstall, exhaust: probeReceiver,
		build: func(_ *Coordinator, r *run, tr obs.TraceContext) proto.Message {
			return proto.SendStates{Epoch: r.id, Partitions: r.parts, Receiver: r.receiver, Directed: directed, Trace: tr}
		}}
}

var (
	choose = step{name: "wait_ptv", to: sender, from: sender, awaits: proto.PtV{},
		sent: obs.StepCptV, acked: obs.StepPtV, phase: obs.SpanRelocWaitPtV, exhaust: abortSender,
		build: func(_ *Coordinator, r *run, tr obs.TraceContext) proto.Message {
			return proto.CptV{Epoch: r.id, Amount: r.amount, Receiver: r.receiver, LowProd: r.lowProd, Trace: tr}
		},
		// An empty choice aborts the adaptation; nothing was paused.
		onAck: func(c *Coordinator, r *run, m proto.Message, now vclock.Time) bool {
			if r.parts = m.(proto.PtV).Partitions; len(r.parts) == 0 {
				c.abort(r, now, "empty ptv")
				return false
			}
			r.span.SetAttr("partitions", strconv.Itoa(len(r.parts)))
			return true
		}}
	fence = step{name: "wait_marker", to: splitHost, from: sender, awaits: proto.MarkerAck{},
		sent: obs.StepPause, acked: obs.StepMarkerAck, phase: obs.SpanRelocWaitMarker, exhaust: abortSender,
		build: func(_ *Coordinator, r *run, tr obs.TraceContext) proto.Message {
			return proto.Pause{Epoch: r.id, Partitions: r.parts, Owner: r.sender, Trace: tr}
		}}
	reroute = step{name: "wait_remap_ack", to: splitHost, from: splitHost, awaits: proto.RemapAck{},
		sent: obs.StepRemap, acked: obs.StepRemapAck, phase: obs.SpanRelocWaitRemapAck,
		commits: true, exhaust: giveUp, build: remap(receiver)}

	spill = step{name: "wait_spill_done", to: sender, from: sender, awaits: proto.SpillDone{}, exhaust: giveUp,
		build: func(_ *Coordinator, r *run, tr obs.TraceContext) proto.Message {
			return proto.ForceSpill{Amount: r.amount, Seq: r.id, Trace: tr}
		}}

	probe = step{name: "abort_wait_receiver", to: receiver, from: receiver, awaits: proto.RelocAbortAck{},
		exhaust: giveUp, build: relocAbort,
		// The receiver holds the state: leave the rollback for the
		// relocation's commit point (advance moves on to reroute).
		// Otherwise the rollback carries on.
		onAck: func(_ *Coordinator, r *run, m proto.Message, _ vclock.Time) bool {
			if m.(proto.RelocAbortAck).Installed {
				r.span.SetAttr("abort_resolution", "commit_forward")
				r.plan, r.row = &relocationPlan, len(relocationPlan.steps)-2
			}
			return true
		}}
	unwind = step{name: "abort_wait_sender", to: sender, from: sender, awaits: proto.RelocAbortAck{},
		exhaust: restoreSplitHost, build: relocAbort}
	// restore re-enables partitions under the owner they already have:
	// the tail of a rollback, and the whole of a revived engine's resume.
	restore = step{name: "abort_wait_resume", to: splitHost, from: splitHost, awaits: proto.RemapAck{},
		exhaust: giveUp, build: remap(sender)}

	install = step{name: "promo_wait_ack", to: receiver, from: receiver, awaits: proto.PromoteAck{},
		sent: obs.StepPromoteSent, acked: obs.StepPromoteAcked, exhaust: giveUp,
		build: func(_ *Coordinator, r *run, tr obs.TraceContext) proto.Message {
			return proto.Promote{Epoch: r.id, From: r.sender, Groups: r.parts, Trace: tr}
		}}
	repoint = step{name: "promo_wait_remap", to: splitHost, from: splitHost, awaits: proto.RemapAck{},
		sent: obs.StepRemapSent, acked: obs.StepRemapAcked, commits: true, exhaust: skipStep, build: remap(receiver)}

	drop = step{name: "demote_wait_ack", to: sender, from: sender, awaits: proto.DemoteAck{}, exhaust: giveUp,
		build: func(_ *Coordinator, r *run, tr obs.TraceContext) proto.Message {
			return proto.Demote{Epoch: r.id, Groups: r.parts, Trace: tr}
		}}
)

// The plans.
var (
	relocationPlan = plan{name: "relocation", steps: []step{choose, fence, ship(false), reroute},
		begin: beginRelocation, done: relocated}
	drainPlan = plan{name: "drain", steps: []step{fence, ship(true), reroute},
		begin: beginDrain, done: relocated}
	forcedSpillPlan = plan{name: "forced_spill", steps: []step{spill}, begin: beginForcedSpill, done: spilled}
	// rollbackPlan is entered by escalation only (abortSender at unwind,
	// probeReceiver at probe) and continues the interrupted run's span.
	rollbackPlan  = plan{name: "rollback", steps: []step{probe, unwind, restore}, done: rolledBack}
	promotionPlan = plan{name: "promotion", steps: []step{install, repoint},
		begin: beginPromotion, committed: promotionCommitted, done: promoted}
	resumePlan = plan{name: "resume", background: true, steps: []step{restore}}
	demotePlan = plan{name: "demote", background: true, steps: []step{drop}, begin: beginDemote, done: demoted}

	plans = []*plan{&relocationPlan, &drainPlan, &forcedSpillPlan, &rollbackPlan, &promotionPlan, &resumePlan, &demotePlan}
)

// open starts the run's span, stamps the fields and the decision's
// reason on it as attributes and logs the start with the same fields.
func (c *Coordinator) open(r *run, span, event string, fields ...obs.Field) {
	fields = append(fields, obs.F("decision", r.reason))
	r.span = c.tracer.Start(span, string(c.cfg.Node), r.started)
	for _, f := range fields {
		r.span.SetAttr(f.Key, f.Value())
	}
	c.log.Info(event, fields...)
}

func beginRelocation(c *Coordinator, r *run, _ vclock.Time) {
	c.open(r, obs.SpanRelocation, "relocation_started", obs.FUint("epoch", r.id), obs.F("sender", string(r.sender)),
		obs.F("receiver", string(r.receiver)), obs.FInt("amount_bytes", r.amount))
}

func beginDrain(c *Coordinator, r *run, _ vclock.Time) {
	c.open(r, obs.SpanRelocationDrain, "drain_started", obs.FUint("epoch", r.id), obs.F("sender", string(r.sender)),
		obs.F("receiver", string(r.receiver)), obs.FInt("partitions", int64(len(r.parts))))
}

func relocated(c *Coordinator, r *run, now vclock.Time) {
	took := now.Sub(r.started)
	r.span.End(now)
	c.mRelocations.Inc()
	c.mRelocVSecs.ObserveDuration(took)
	c.log.Info("relocation_complete", obs.FUint("epoch", r.id), obs.F("sender", string(r.sender)),
		obs.F("receiver", string(r.receiver)), obs.FInt("partitions", int64(len(r.parts))))
}

func beginForcedSpill(c *Coordinator, r *run, _ vclock.Time) {
	c.open(r, obs.SpanForcedSpill, "forced_spill_started",
		obs.F("node", string(r.sender)), obs.FInt("amount_bytes", r.amount), obs.FUint("seq", r.id))
}

func spilled(c *Coordinator, r *run, now vclock.Time) {
	bytes := r.acked.(proto.SpillDone).Bytes
	r.span.SetAttr("spilled_bytes", strconv.FormatInt(bytes, 10))
	r.span.End(now)
	c.mForcedSpills.Inc()
	c.log.Info("forced_spill_complete", obs.F("engine", string(r.sender)), obs.FInt("spilled_bytes", bytes))
}

// rolledBack closes a relocation that was undone: the cluster is as if
// it had never been attempted.
func rolledBack(c *Coordinator, r *run, now vclock.Time) {
	reason := "rolled back, split host restored"
	if len(r.parts) == 0 {
		reason = "aborted in wait_ptv"
	}
	c.abort(r, now, reason)
}

// beginPromotion starts the span at the victim's death, so its duration
// measures true failover latency.
func beginPromotion(c *Coordinator, r *run, _ vclock.Time) {
	r.started = c.engines[r.sender].diedAt
	c.open(r, obs.SpanPromotion, "promotion_started", obs.F("victim", string(r.sender)),
		obs.F("follower", string(r.receiver)), obs.FInt("partitions", int64(len(r.parts))))
	r.span.Step(obs.StepDeathDetected, r.started)
}

// promotionCommitted queues the victim's demotion: its copy of what
// moved is stale from here on, and it is told as soon as it can be.
func promotionCommitted(c *Coordinator, r *run, now vclock.Time) {
	r.span.Step(obs.StepMapCommitted, now)
	c.pendingDemotes[r.sender] = append(c.pendingDemotes[r.sender], r.parts...)
	c.settle()
	if c.engines[r.sender].alive.Load() {
		c.queueDemote(r.sender)
	}
}

// promoted closes out a failover; a victim that revived mid-flight is
// demoted and whatever it still owns is released.
func promoted(c *Coordinator, r *run, now vclock.Time) {
	took := now.Sub(r.started)
	r.span.End(now)
	c.mPromotions.Inc()
	c.mPromoSecs.ObserveDuration(took)
	c.log.Info("promotion_complete", obs.F("victim", string(r.sender)),
		obs.FInt("groups", int64(len(r.parts))), obs.F("latency", took.String()))
	if c.engines[r.sender].alive.Load() {
		c.queueDemote(r.sender)
		c.resume(r.sender)
	}
}

func beginDemote(c *Coordinator, r *run, _ vclock.Time) {
	c.log.Info("demote_sent", obs.F("engine", string(r.sender)),
		obs.FInt("groups", int64(len(r.parts))), obs.FUint("epoch", r.id))
}

func demoted(c *Coordinator, r *run, _ vclock.Time) {
	c.mDemotions.Inc()
	c.log.Info("demotion_complete", obs.F("engine", string(r.sender)), obs.FInt("groups", int64(len(r.parts))))
}
