// Package proto defines the messages exchanged between the cluster's
// nodes: the global coordinator (GC), the query engines (QE), the stream
// generator node hosting the split operators, and the application server
// consuming results. Data-path payloads (tuple batches, state snapshots)
// use the compact binary codecs of packages tuple and join; the message
// envelopes around them travel in the canonical binary encoding of
// wire.go, whose kind table is the registry of every message below.
package proto

import (
	"repro/internal/obs"
	"repro/internal/partition"
)

// Kind classifies a cluster node.
type Kind int

// Node kinds.
const (
	KindEngine Kind = iota
	KindCoordinator
	KindGenerator
	KindApp
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindEngine:
		return "engine"
	case KindCoordinator:
		return "coordinator"
	case KindGenerator:
		return "generator"
	case KindApp:
		return "appserver"
	default:
		return "unknown"
	}
}

// Message is any value registered in the wire-kind table (wire.go);
// transports move Messages opaquely.
type Message any

// Hello registers a node with the coordinator.
//
//distq:handledby coordinator
type Hello struct {
	Node partition.NodeID
	Kind Kind
}

// Data carries an encoded tuple.Batch from a split operator to a query
// engine, stamped with the partition map version it was routed under.
//
//distq:handledby engine
type Data struct {
	Payload    []byte
	MapVersion uint64
}

// PauseMarker travels on the data path from the split host to the
// relocation sender after the affected partitions were paused. Because
// the transport is FIFO per sender-receiver pair, receiving the marker
// guarantees the sender engine has processed every earlier tuple for the
// moving partitions (relocation protocol step 3/4).
//
//distq:handledby engine
type PauseMarker struct {
	Epoch uint64
	// Trace is forwarded from the Pause that triggered the marker, so the
	// sender's drain-fence span joins the coordinator's relocation trace.
	Trace obs.TraceContext
}

// MarkerAck tells the coordinator the relocation sender drained its data
// path (step 4).
//
//distq:handledby coordinator
type MarkerAck struct {
	Epoch uint64
	Node  partition.NodeID
}

// StatsReport is the light-weight statistic each query engine pushes to
// the coordinator on its sr_timer: memory usage, group count, and the
// cumulative result count (the coordinator differentiates it into the
// productivity rate R).
//
//distq:handledby coordinator
type StatsReport struct {
	Node partition.NodeID
	// MemBytes is all the engine holds in memory, Standby included: the
	// follower copies of other engines' groups, which it cannot move.
	MemBytes int64
	Standby  int64
	Groups   int
	Output   uint64
	// ReplLag is the engine's per-group replication lag in bytes: state
	// this primary has accepted but its followers have not yet
	// acknowledged (zero/empty when replication is off).
	ReplLag map[partition.ID]int64
	// ReplVersion is the highest ReplicaMap version the engine has
	// applied; the coordinator's replication-settled fence requires every
	// active engine to have caught up to the broadcast version.
	ReplVersion uint64
}

// ResultCount reports a batch of produced results from an engine to the
// application server (count-only mode).
//
//distq:handledby appserver
type ResultCount struct {
	Node  partition.NodeID
	Delta uint64
}

// ResultData carries encoded tuple.Result values to the application
// server (materializing mode, used by exactness tests and examples).
//
//distq:handledby appserver
type ResultData struct {
	Node    partition.NodeID
	Payload []byte
	Phase   Phase
}

// Phase tags results as produced during the run-time or cleanup phase.
type Phase int

// Result phases.
const (
	PhaseRuntime Phase = iota
	PhaseCleanup
)

// CptV asks the relocation sender to compute the partition groups to move
// (step 1, "cptv" in Algorithms 1 and 2).
//
//distq:handledby engine
type CptV struct {
	Epoch    uint64
	Amount   int64
	Receiver partition.NodeID
	// LowProd inverts the victim policy: instead of shedding its most
	// productive groups (load relief), the sender picks its LEAST
	// productive ones. The join-rebalance planner uses this so a fresh
	// engine warms up on cheap state first (Bala-Join's cost framing).
	LowProd bool
	// Trace parents the sender's spans under the coordinator's relocation
	// decision span. Only the coordinator's step messages carry a trace
	// context, plus the two that forward a step's context to a span on
	// another node (PauseMarker, StateTransfer); acks, reports, data,
	// membership and replication messages do not (TestTraceFieldSet).
	Trace obs.TraceContext
}

// PtV returns the chosen partition groups to the coordinator (step 2).
//
//distq:handledby coordinator
type PtV struct {
	Epoch      uint64
	Node       partition.NodeID
	Partitions []partition.ID
}

// Pause tells the split host to buffer tuples of the moving partitions
// and emit a PauseMarker to the current owner (step 3).
//
//distq:handledby splithost
type Pause struct {
	Epoch      uint64
	Partitions []partition.ID
	Owner      partition.NodeID
	// Trace is forwarded on the PauseMarker pushed to Owner.
	Trace obs.TraceContext
}

// SendStates tells the sender to transfer the moving groups to the
// receiver (step 5).
//
//distq:handledby engine
type SendStates struct {
	Epoch      uint64
	Partitions []partition.ID
	Receiver   partition.NodeID
	// Directed marks a coordinator-chosen partition set (drain of a
	// leaving engine): the sender transfers exactly Partitions without a
	// preceding CptV/PtV round, synthesizing its relocation state from
	// this message if the epoch is new to it.
	Directed bool
	// Trace parents the sender's extraction span; the sender forwards it
	// on the StateTransfer so the receiver's install span joins too.
	Trace obs.TraceContext
}

// StateTransfer carries the moving partition groups, one encoded group
// image (spill.AppendImage: memory tier plus disk segments) each. Disk
// segments follow the group so cleanup stays local to the group's final
// owner (step 6).
//
//distq:handledby engine
type StateTransfer struct {
	Epoch  uint64
	Images [][]byte
	// Trace is forwarded from the SendStates that ordered the transfer.
	Trace obs.TraceContext
}

// Installed tells the coordinator the receiver installed the transferred
// state (step 6 ack).
//
//distq:handledby coordinator
type Installed struct {
	Epoch uint64
	Node  partition.NodeID
}

// Remap updates the split host's partition map to the new owner and
// releases the buffered tuples (step 7).
//
//distq:handledby splithost
type Remap struct {
	Epoch      uint64
	Partitions []partition.ID
	Owner      partition.NodeID
	Version    uint64
	// Trace parents the split host remap under the relocation span.
	Trace obs.TraceContext
}

// RemapAck completes the relocation (step 8).
//
//distq:handledby coordinator
type RemapAck struct {
	Epoch uint64
}

// ForceSpill is the coordinator's active-disk command: the engine must
// push Amount bytes of its least productive groups to disk. Seq makes
// the command idempotent under retry: an engine receiving a ForceSpill
// with the Seq it last executed re-acknowledges instead of spilling
// again.
//
//distq:handledby engine
type ForceSpill struct {
	Amount int64
	Seq    uint64
	// Trace parents the engine's spill span under the coordinator's
	// forced-spill decision span.
	Trace obs.TraceContext
}

// SpillDone acknowledges a forced spill, echoing its Seq.
//
//distq:handledby coordinator
type SpillDone struct {
	Node  partition.NodeID
	Bytes int64
	Seq   uint64
}

// RelocTimeout is the coordinator's self-addressed await-phase timer:
// when an expected protocol reply has not arrived within the armed
// virtual-time deadline, the handler retries the pending step or
// escalates to RelocAbort. Seq identifies the arming; the coordinator
// bumps its timeout sequence on every phase transition so stale timers
// are ignored.
//
//distq:handledby coordinator
type RelocTimeout struct {
	Epoch uint64
	Seq   uint64
}

// RelocAbort rolls an engine out of relocation epoch Epoch: a sender
// that still holds (or reinstalled) the moving state clears its
// relocation mode; a receiver that already installed the state reports
// so, letting the coordinator commit forward instead of rolling back.
// The message is idempotent — an engine that knows nothing about the
// epoch still acknowledges.
//
//distq:handledby engine
type RelocAbort struct {
	Epoch uint64
	// Trace parents the engine's rollback span under the abort
	// decision.
	Trace obs.TraceContext
}

// RelocAbortAck acknowledges a RelocAbort. Installed reports whether
// this engine had already installed the epoch's transferred state (the
// receiver raced the abort): if so the coordinator commits the
// relocation forward rather than rolling back.
//
//distq:handledby coordinator
type RelocAbortAck struct {
	Epoch     uint64
	Node      partition.NodeID
	Installed bool
}

// StartCleanup tells an engine to run its disk-phase cleanup.
//
//distq:handledby engine
type StartCleanup struct{}

// CleanupDone reports an engine's cleanup outcome. A non-empty Error
// means the cleanup aborted (e.g. a corrupted segment failed its
// checksum) and the counters cover only the work completed before.
//
//distq:handledby appserver, generator
type CleanupDone struct {
	Node      partition.NodeID
	Groups    int
	Segments  int
	Tuples    int
	Results   uint64
	ElapsedNs int64
	Error     string
}

// Stop shuts a node down at the end of an experiment.
//
//distq:handledby coordinator, engine
type Stop struct{}

// Tick is a node's self-addressed timer message: routing timers through
// the transport keeps every node single-threaded (timers and messages are
// processed by the same serial handler).
//
//distq:handledby coordinator, engine
type Tick struct {
	Kind string
}

// Timer kinds carried by Tick.
const (
	TickStats = "stats" // sr_timer: push statistics to the coordinator
	TickSpill = "spill" // ss_timer: local memory-overflow check
	TickLB    = "lb"    // lb_timer: coordinator strategy evaluation
)

// Drain asks an engine to finish processing everything already on its
// (FIFO) data path and acknowledge; the split host fences the run-time
// phase with it before cleanup starts. The engine passes it on to the
// application server behind its results, and acknowledges once the
// application server has (PROTOCOL.md "End-of-run fencing").
//
//distq:handledby engine, appserver
type Drain struct {
	Token uint64
}

// DrainAck acknowledges a Drain: the application server's to the engine
// that relayed it, the engine's (under its own name) to the requester.
//
//distq:handledby generator, engine
type DrainAck struct {
	Token uint64
	Node  partition.NodeID
}

// Quiesce asks the coordinator to stop starting new adaptations and to
// acknowledge once no adaptation is in flight. The harness fences the
// run-time phase with it: quiesce, then drain, then cleanup.
//
//distq:handledby coordinator
type Quiesce struct{}

// QuiesceAck acknowledges a Quiesce once the coordinator is idle.
//
//distq:handledby generator
type QuiesceAck struct{}

// JoinRequest asks the coordinator to admit a new engine into the
// running cluster. The engine retries it with jittered backoff until a
// JoinAck arrives; the request is idempotent (an already-admitted
// engine is re-acked).
//
//distq:handledby coordinator
type JoinRequest struct {
	Node partition.NodeID
	// Addr is the joiner's transport address. Directory-based transports
	// (TCP) cannot reach a dynamically joined node otherwise; the
	// coordinator extends its own directory and disseminates the address
	// via MemberAddr. Empty on registration-based transports (in-proc).
	Addr string
}

// JoinAck admits (or refuses) a joining engine. After admission the
// engine is tracked as joining until its first StatsReport, at which
// point the rebalance planner may shed low-productivity groups onto it.
//
//distq:handledby engine
type JoinAck struct {
	Node     partition.NodeID
	Accepted bool
	// Reason explains a refusal (e.g. the node name collides with an
	// engine that left).
	Reason string
}

// MemberAddr disseminates a dynamically joined engine's transport
// address so directory-based transports (TCP) can extend their node
// directories: the coordinator broadcasts it to the split host and
// every engine on admission, and replays known addresses to later
// joiners. An engine also sends its own ahead of a Drain it passes on to
// the application server, which must answer it and is told of no engine
// otherwise. Recipients whose transport has no directory (in-proc)
// ignore it. Best-effort: a lost MemberAddr surfaces as a failed
// relocation to the unknown node, which escalates and is retried.
//
//distq:handledby engine, splithost, appserver
type MemberAddr struct {
	Node partition.NodeID
	Addr string
}

// Leave announces that an engine wants to depart gracefully. The
// coordinator drains every partition group it owns onto the remaining
// engines via directed relocations, then answers LeaveAck. The engine
// retries Leave with jittered backoff until acknowledged.
//
//distq:handledby coordinator
type Leave struct {
	Node partition.NodeID
}

// LeaveAck confirms that a departing engine owns no partitions and may
// shut down. The coordinator stops tracking it (terminal state).
//
//distq:handledby engine
type LeaveAck struct {
	Node partition.NodeID
}

// ReplicaMap is the coordinator's broadcast of the desired follower
// assignment: for every partition group, which engine is its primary
// (the partition-map owner) and which engine keeps a warm follower
// copy. Engines apply a map only if Version exceeds what they hold;
// the coordinator rebroadcasts the current version on every
// load-balance tick, so a lost broadcast self-heals.
//
//distq:handledby engine
type ReplicaMap struct {
	Version uint64
	Entries []ReplicaEntry
}

// ReplicaEntry assigns one partition group's follower (nested in
// ReplicaMap, not a standalone message).
type ReplicaEntry struct {
	Group    partition.ID
	Primary  partition.NodeID
	Follower partition.NodeID
}

// StateDelta carries incremental replication state from a primary to a
// follower: the tuples appended to the primary's groups since the last
// delta, pre-encoded per group, full group-image seeds (memory tier plus
// spilled disk segments) for groups the follower has not been
// initialized with, and spill markers demoting the follower's matching
// standby fraction to its local store. Seq orders deltas per (primary,
// follower) pair within one life of the primary: the follower applies
// them in order, re-acks duplicates and answers gaps with its last
// applied Seq, and the primary retransmits everything unacked on each
// stats tick.
//
//distq:handledby engine
type StateDelta struct {
	From partition.NodeID
	// Incarnation identifies the sending primary's life (its boot time).
	// Seq restarts at 1 with every life: a follower seeing a newer one
	// starts counting afresh, and drops an older one's stragglers.
	Incarnation uint64
	Seq         uint64
	Entries     []DeltaEntry
}

// DeltaKind discriminates the payload of one DeltaEntry.
type DeltaKind uint8

const (
	// DeltaAppend carries tuple-encoded appends since the last delta.
	DeltaAppend DeltaKind = 0
	// DeltaSeed carries the group's whole image (spill.AppendImage),
	// replacing any follower state for the group; the follower keeps it
	// two-tier like the primary. (2, DeltaSegment, is retired: segments
	// ride inside the seed.)
	DeltaSeed DeltaKind = 1
	// DeltaSpillMark tells the follower the primary spilled the group:
	// the payload is the spilled generation (uint32 little-endian), and
	// the follower demotes its current memory-tier standby into a local
	// segment stamped with that generation, keeping follower segment
	// boundaries aligned with the primary's.
	DeltaSpillMark DeltaKind = 3
)

// DeltaEntry is one group's increment within a StateDelta (nested, not
// a standalone message). Kind selects the payload encoding: appends are
// tuple-encoded, seeds are group images, and spill markers carry the
// spilled generation.
type DeltaEntry struct {
	Group   partition.ID
	Kind    DeltaKind
	Payload []byte
}

// DeltaAck acknowledges every StateDelta from the sending follower up
// to and including Seq, letting the primary prune its retransmit
// buffer and advance the group's replication-lag accounting.
//
//distq:handledby engine
type DeltaAck struct {
	Node partition.NodeID
	// Incarnation identifies the acknowledging follower's life. A primary
	// that sees it advance knows the standby it was feeding is gone: it
	// re-seeds every group it streams there and renumbers from 1.
	Incarnation uint64
	Seq         uint64
}

// Promote orders a follower to install its warm copies of Groups as
// resident operator state: the watchdog declared their primary (From)
// dead and the coordinator is failing the groups over. Idempotent per
// epoch — a follower that already promoted the epoch re-acks.
//
//distq:handledby engine
type Promote struct {
	Epoch  uint64
	From   partition.NodeID
	Groups []partition.ID
	// Trace parents the follower's install span under the coordinator's
	// promotion span, reassembling one trace tree across death →
	// promote → remap.
	Trace obs.TraceContext
}

// PromoteAck confirms a promotion step. Installed reports whether the
// follower holds the groups as resident state (always true on success;
// kept explicit to mirror RelocAbortAck's commit-forward contract).
//
//distq:handledby coordinator
type PromoteAck struct {
	Epoch     uint64
	Node      partition.NodeID
	Installed bool
}

// Demote tells a revived engine that Groups were failed over away from
// it while it was presumed dead: it must drop its now-stale resident
// copies (flushing any replication tail first) and fall back to
// follower duty. Idempotent per epoch.
//
//distq:handledby engine
type Demote struct {
	Epoch  uint64
	Groups []partition.ID
	// Trace identifies the coordinator's promotion span, if any.
	Trace obs.TraceContext
}

// DemoteAck confirms a demotion.
//
//distq:handledby coordinator
type DemoteAck struct {
	Epoch uint64
	Node  partition.NodeID
}
