package obs

import (
	"sync"
	"time"

	"repro/internal/vclock"
)

// Span names used across the system.
const (
	// SpanRelocation covers one 8-step relocation, recorded at the
	// coordinator from CptV send to RemapAck (or abort).
	SpanRelocation = "relocation"
	// SpanRelocationSend / SpanRelocationReceive are the engine-side
	// views of one relocation (sender extraction, receiver install).
	SpanRelocationSend    = "relocation_send"
	SpanRelocationReceive = "relocation_receive"
	// SpanSpill covers one spill cycle (attr kind = local|forced).
	SpanSpill = "spill"
	// SpanForcedSpill covers the coordinator's force-spill exchange.
	SpanForcedSpill = "forced_spill"
	// SpanCleanup covers one disk-phase cleanup run.
	SpanCleanup = "cleanup"
	// SpanMembership covers one membership transition at the coordinator
	// (attr kind = join|leave, node).
	SpanMembership = "membership"
	// SpanRelocationDrain covers a coordinator-directed drain of a
	// leaving engine: the relocation protocol from Pause onward, with
	// the partition choice made by the coordinator (no CptV/PtV round).
	SpanRelocationDrain = "relocation_drain"
	// SpanPromotion covers one failover at the coordinator, from the
	// watchdog declaring the primary dead to the last remap ack.
	SpanPromotion = "promotion"
	// SpanPromotionInstall is the follower-side view of one promotion
	// step: installing its warm copies as resident state.
	SpanPromotionInstall = "promotion_install"
)

// Relocation protocol step names, in protocol order (PROTOCOL.md). A
// completed relocation span carries exactly these eight steps with
// non-decreasing virtual timestamps.
const (
	StepCptV       = "cptv_sent"    // 1: GC → sender
	StepPtV        = "ptv_received" // 2: sender → GC
	StepPause      = "pause_sent"   // 3: GC → split host
	StepMarkerAck  = "marker_ack"   // 4: marker fence acknowledged
	StepSendStates = "send_states"  // 5: GC orders the state transfer
	StepInstalled  = "installed"    // 6: receiver installed the state
	StepRemap      = "remap_sent"   // 7: GC remaps the split host
	StepRemapAck   = "remap_ack"    // 8: resume; relocation complete
)

// RelocationSteps lists the eight step names in protocol order.
var RelocationSteps = []string{
	StepCptV, StepPtV, StepPause, StepMarkerAck,
	StepSendStates, StepInstalled, StepRemap, StepRemapAck,
}

// Promotion step names, in failover order: the watchdog flags the
// primary dead, the coordinator promotes each follower, commits the new
// partition map, and remaps the split host.
const (
	StepDeathDetected = "death_detected"
	StepPromoteSent   = "promote_sent"
	StepPromoteAcked  = "promote_acked"
	StepMapCommitted  = "map_committed"
	StepRemapSent     = "promo_remap_sent"
	StepRemapAcked    = "promo_remap_acked"
)

// Span names of the distributed-trace children introduced with trace
// propagation: the coordinator's await phases and the engine-side
// acknowledgment points of the relocation protocol. All are children of
// a root span through TraceContext.
const (
	// Coordinator await phases, one span per protocol wait.
	SpanRelocWaitPtV      = "relocation_wait_ptv"
	SpanRelocWaitMarker   = "relocation_wait_marker"
	SpanRelocWaitInstall  = "relocation_wait_installed"
	SpanRelocWaitRemapAck = "relocation_wait_remap_ack"
	// Sender-engine protocol points (cptv choice, marker fence).
	SpanRelocationCptV   = "relocation_cptv"
	SpanRelocationMarker = "relocation_marker"
)

// Attribute values for the status attr.
const (
	StatusOK      = "ok"
	StatusAborted = "aborted"
)

// TraceContext is the compact trace identity carried on control-plane
// protocol messages: which distributed trace an operation belongs to and
// which span (on which node) is its parent. The zero value means
// "untraced"; spans started under it become roots of fresh traces.
// TraceContext is a plain value type so proto messages can embed it; the
// wire codec (proto/wire.go) encodes it as two u64s and a string.
type TraceContext struct {
	TraceID uint64 `json:"trace_id,omitempty"`
	// SpanID / Node identify the parent span within its node's tracer
	// (span IDs are only unique per node).
	SpanID uint64 `json:"span_id,omitempty"`
	Node   string `json:"node,omitempty"`
}

// Valid reports whether the context names a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// StepData is one recorded protocol transition within a span.
type StepData struct {
	Name string      `json:"name"`
	VT   vclock.Time `json:"vt_ns"`
	Wall time.Time   `json:"wall"`
}

// SpanData is the immutable snapshot of a span, JSON-encodable for the
// /stats endpoint and the JSONL run reports. Virtual times are
// nanoseconds since the virtual epoch.
type SpanData struct {
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	Node string `json:"node"`
	// TraceID groups spans of one distributed operation across nodes;
	// ParentID/ParentNode link to the parent span within the trace
	// (zero/empty for a trace root). See TraceContext.
	TraceID    uint64            `json:"trace_id,omitempty"`
	ParentID   uint64            `json:"parent_id,omitempty"`
	ParentNode string            `json:"parent_node,omitempty"`
	Start      vclock.Time       `json:"start_vt_ns"`
	End        vclock.Time       `json:"end_vt_ns"`
	WallStart  time.Time         `json:"wall_start"`
	WallEnd    time.Time         `json:"wall_end"`
	Complete   bool              `json:"complete"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Steps      []StepData        `json:"steps,omitempty"`
}

// Duration is the span's virtual duration (zero while incomplete).
func (d SpanData) Duration() time.Duration {
	if !d.Complete {
		return 0
	}
	return d.End.Sub(d.Start)
}

// Step returns the named step and whether it was recorded.
func (d SpanData) Step(name string) (StepData, bool) {
	for _, s := range d.Steps {
		if s.Name == name {
			return s, true
		}
	}
	return StepData{}, false
}

// clone deep-copies the snapshot.
func (d SpanData) clone() SpanData {
	out := d
	if d.Attrs != nil {
		out.Attrs = make(map[string]string, len(d.Attrs))
		for k, v := range d.Attrs {
			out.Attrs[k] = v
		}
	}
	out.Steps = append([]StepData(nil), d.Steps...)
	return out
}

// Tracer records spans into a bounded ring of recent spans. All methods
// are safe for concurrent use; a nil *Tracer is a valid no-op tracer
// (Start returns a nil span whose methods no-op), so components can run
// untraced without guarding every call site.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	spans  []*Span // oldest first; active and finished
	nextID uint64
}

// DefaultTracerCapacity bounds the recent-span ring.
const DefaultTracerCapacity = 256

// NewTracer returns a tracer keeping up to capacity recent spans
// (DefaultTracerCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{cap: capacity}
}

// Start opens a root span at virtual time vt: it begins a fresh trace
// whose ID is derived from the node name and the span's sequence number
// (deterministic, cluster-unique without a wall clock or randomness).
// The returned span is mutated by its owner (typically a node's serial
// handler goroutine) and snapshotted concurrently through the tracer.
func (t *Tracer) Start(name, node string, vt vclock.Time) *Span {
	return t.StartChild(name, node, vt, TraceContext{})
}

// StartChild opens a span under a parent trace context, as propagated on
// a control-plane protocol message. A zero (invalid) parent makes the
// span the root of a fresh trace, so call sites need not guard against
// untraced messages. Span names are snake_case identifiers, checked
// even on a nil tracer.
func (t *Tracer) StartChild(name, node string, vt vclock.Time, parent TraceContext) *Span {
	checkIdentifier("span/step", name)
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	d := SpanData{
		ID:        t.nextID,
		Name:      name,
		Node:      node,
		Start:     vt,
		WallStart: time.Now(),
	}
	if parent.Valid() {
		d.TraceID = parent.TraceID
		d.ParentID = parent.SpanID
		d.ParentNode = parent.Node
	} else {
		d.TraceID = traceID(node, t.nextID)
	}
	s := &Span{t: t, d: d}
	t.spans = append(t.spans, s)
	if len(t.spans) > t.cap {
		t.spans = append(t.spans[:0], t.spans[len(t.spans)-t.cap:]...)
	}
	return s
}

// traceID derives a cluster-unique trace identifier from the opening
// node's name (FNV-1a hashed into the high bits) and the span's
// per-node sequence number. Never zero: zero means "untraced".
func traceID(node string, seq uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	id := (h << 20) ^ seq
	if id == 0 {
		id = 1
	}
	return id
}

// Spans snapshots every retained span, oldest first.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	for i, s := range t.spans {
		out[i] = s.d.clone()
	}
	return out
}

// Recent snapshots the newest n retained spans, oldest first.
func (t *Tracer) Recent(n int) []SpanData {
	all := t.Spans()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Span is one in-flight or finished operation. Mutating methods are
// synchronized through the owning tracer so concurrent snapshot reads
// (monitoring scrapes) are race-free. All methods no-op on a nil span.
type Span struct {
	t *Tracer
	d SpanData
}

// Context returns the trace context that makes later spans children of
// this one; stamp it on the protocol message that hands the operation to
// another node. A nil span returns the zero (untraced) context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return TraceContext{TraceID: s.d.TraceID, SpanID: s.d.ID, Node: s.d.Node}
}

// Step records a protocol transition at virtual time vt.
func (s *Span) Step(name string, vt vclock.Time) {
	checkIdentifier("span/step", name)
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.d.Steps = append(s.d.Steps, StepData{Name: name, VT: vt, Wall: time.Now()})
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.d.Attrs == nil {
		s.d.Attrs = make(map[string]string)
	}
	s.d.Attrs[key] = value
}

// End closes the span at virtual time vt with status ok (unless an
// earlier Abort set a status).
func (s *Span) End(vt vclock.Time) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.d.Complete {
		return
	}
	s.d.End = vt
	s.d.WallEnd = time.Now()
	s.d.Complete = true
	if s.d.Attrs == nil {
		s.d.Attrs = make(map[string]string)
	}
	if _, ok := s.d.Attrs["status"]; !ok {
		s.d.Attrs["status"] = StatusOK
	}
}

// Abort closes the span at vt marking it aborted with a reason.
func (s *Span) Abort(vt vclock.Time, reason string) {
	if s == nil {
		return
	}
	s.SetAttr("status", StatusAborted)
	if reason != "" {
		s.SetAttr("reason", reason)
	}
	s.End(vt)
}

// Data snapshots the span's current state.
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.d.clone()
}
