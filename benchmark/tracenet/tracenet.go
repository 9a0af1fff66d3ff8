// Package tracenet is a tracing middleware over any transport.Network,
// in the pattern of transport/faulty: it wraps Attach so every
// Endpoint.Send and every handler invocation is recorded as a span,
// from outside the program under test. Nothing inside the cluster knows
// it is being traced.
//
// A message's send span and handle span share the identifier
// (from, to, per-pair sequence). The transport contract is FIFO per
// (sender, receiver) pair, and the wrapper assigns the sequence under a
// per-pair lock that also covers the inner Send, so sequence order is
// wire order and the n-th send of a pair is the n-th delivery: matching
// is exact, not heuristic. (The lock serialises concurrent senders of
// one pair, which the TCP connection's write lock does anyway.)
//
// Spans and the recorded messages stay in memory; the benchmark writes
// them out when the run ends. Data and StateTransfer messages are all
// kept (the join and snapshot replays need the full sequence); of
// ResultData and StateDelta one in SampleEvery is kept. Messages are
// kept by reference: senders hand Send a freshly built payload they do
// not reuse, so no copy is taken on the hot path.
package tracenet

import (
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// SampleEvery is the sampling stride for recorded ResultData and
// StateDelta messages.
const SampleEvery = 64

// Span names.
const (
	SpanSend   = "send"
	SpanHandle = "handle"
)

// Span is one timed interval at a layer boundary.
type Span struct {
	// Name is SpanSend, SpanHandle, or the name given to Call.
	Name string `json:"name"`
	// Node is the node the span ran on.
	Node partition.NodeID `json:"node"`
	// Kind is the message's type name ("Data", "Tick/stats", ...).
	Kind string `json:"kind,omitempty"`
	// Peer is the destination of a send, the source of a handle.
	Peer partition.NodeID `json:"peer,omitempty"`
	// Seq is the message's position among all messages of its
	// (from, to) pair; with Node and Peer it identifies the message.
	Seq uint64 `json:"seq,omitempty"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent is the index of the enclosing span, -1 for none.
	Parent int `json:"parent"`
	// Bytes is the native wire size of a data-plane message's body.
	Bytes int `json:"bytes,omitempty"`
	// Epoch is the relocation or promotion epoch, for the control
	// messages that carry one.
	Epoch uint64 `json:"epoch,omitempty"`
	// Msg indexes Recorder.Messages when the message was kept, else -1.
	Msg int `json:"msg"`
	// Failed marks a send the inner transport refused.
	Failed bool `json:"failed,omitempty"`
}

// Duration is the span's length.
func (s *Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects the spans of one traced run.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	msgs  []proto.Message

	nodes sync.Map // partition.NodeID -> *nodeState
}

// nodeState tracks which span currently encloses a node's sends.
type nodeState struct {
	// handler is 1 + the index of the running handler span, 0 for none.
	handler atomic.Int64
	// caller is the same for a span opened with Call.
	caller atomic.Int64
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: vclock.WallNow()} }

// Epoch is the wall-clock instant span times are measured from.
func (r *Recorder) Epoch() time.Time { return r.epoch }

func (r *Recorder) now() int64 { return int64(vclock.WallSince(r.epoch)) }

func (r *Recorder) node(id partition.NodeID) *nodeState {
	if st, ok := r.nodes.Load(id); ok {
		return st.(*nodeState)
	}
	st, _ := r.nodes.LoadOrStore(id, &nodeState{})
	return st.(*nodeState)
}

// begin appends a span that has started and returns its index.
func (r *Recorder) begin(s Span, keep proto.Message) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Msg = -1
	if keep != nil {
		s.Msg = len(r.msgs)
		r.msgs = append(r.msgs, keep)
	}
	s.Start = r.now()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *Recorder) end(idx int, failed bool) {
	at := r.now()
	r.mu.Lock()
	r.spans[idx].End = at
	r.spans[idx].Failed = failed
	r.mu.Unlock()
}

// Call times fn as a span on node; sends the node makes meanwhile from
// outside its handler become the span's children. The benchmark's
// generator wraps its own Ingest/Flush/Feed calls with it.
func (r *Recorder) Call(node partition.NodeID, name string, fn func() error) error {
	st := r.node(node)
	idx := r.begin(Span{Name: name, Node: node, Parent: -1}, nil)
	st.caller.Store(int64(idx) + 1)
	err := fn()
	st.caller.Store(0)
	r.end(idx, err != nil)
	return err
}

// Spans returns the recorded spans. Call it after the traced network
// has been closed.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// Messages returns the kept messages, indexed by Span.Msg.
func (r *Recorder) Messages() []proto.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.msgs
}

// SelfTimes returns, per span, its duration minus the part of its
// interval its child spans cover. Children are clipped to the parent
// and overlapping children (concurrent cleanup workers sending under
// one handler) are merged, so a self time is never negative.
func SelfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	// covered[i] is the end of the merged child coverage of span i so
	// far. Spans are appended in start order per goroutine and nearly
	// so globally, which a single forward pass with clipping tolerates:
	// a child starting before the coverage mark only adds what lies
	// beyond it.
	covered := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].Duration()
		covered[i] = spans[i].Start
	}
	for i := range spans {
		p := spans[i].Parent
		if p < 0 {
			continue
		}
		lo, hi := spans[i].Start, spans[i].End
		if lo < covered[p] {
			lo = covered[p]
		}
		if hi > spans[p].End {
			hi = spans[p].End
		}
		if hi > lo {
			self[p] -= time.Duration(hi - lo)
			covered[p] = hi
		}
	}
	return self
}

// Network wraps an inner transport.Network with span recording.
type Network struct {
	inner transport.Network
	rec   *Recorder
}

// Wrap returns inner with every Send and handler invocation recorded
// into r.
func (r *Recorder) Wrap(inner transport.Network) *Network {
	return &Network{inner: inner, rec: r}
}

// Attach implements transport.Network.
func (n *Network) Attach(node partition.NodeID, h transport.Handler) (transport.Endpoint, error) {
	st := n.rec.node(node)
	// Handlers run serially per node, so the per-source delivery
	// counters need no lock.
	delivered := make(map[partition.NodeID]uint64)
	ep, err := n.inner.Attach(node, func(from partition.NodeID, msg proto.Message) {
		delivered[from]++
		s := Span{Name: SpanHandle, Node: node, Peer: from, Seq: delivered[from], Parent: -1}
		describe(&s, msg)
		idx := n.rec.begin(s, nil)
		st.handler.Store(int64(idx) + 1)
		h(from, msg)
		st.handler.Store(0)
		n.rec.end(idx, false)
	})
	if err != nil {
		return nil, err
	}
	return &endpoint{rec: n.rec, inner: ep, state: st, pairs: make(map[partition.NodeID]*pair)}, nil
}

// Close implements transport.Network.
func (n *Network) Close() error { return n.inner.Close() }

// Instrument forwards transport metrics registration to the inner
// network, so a traced cluster keeps the per-message counters (and
// their cost) an untraced one has.
func (n *Network) Instrument(node partition.NodeID, m *transport.Metrics) {
	if instr, ok := n.inner.(transport.Instrumentable); ok {
		instr.Instrument(node, m)
	}
}

// pair is the send side of one (from, to) pair.
type pair struct {
	mu  sync.Mutex
	seq uint64
}

type endpoint struct {
	rec   *Recorder
	inner transport.Endpoint
	state *nodeState

	mu    sync.Mutex
	pairs map[partition.NodeID]*pair
}

// Node implements transport.Endpoint.
func (e *endpoint) Node() partition.NodeID { return e.inner.Node() }

// Close implements transport.Endpoint.
func (e *endpoint) Close() error { return e.inner.Close() }

// FlushOutbound implements transport.OutboundFlusher by delegating, so
// an engine's drain fence still pushes coalesced result frames out
// ahead of its acknowledgement.
func (e *endpoint) FlushOutbound() { transport.FlushOutbound(e.inner) }

func (e *endpoint) pair(to partition.NodeID) *pair {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.pairs[to]
	if p == nil {
		p = &pair{}
		e.pairs[to] = p
	}
	return p
}

// Send implements transport.Endpoint.
func (e *endpoint) Send(to partition.NodeID, msg proto.Message) error {
	from := e.inner.Node()
	s := Span{Name: SpanSend, Node: from, Peer: to, Parent: -1}
	keep := describe(&s, msg)
	// A self-addressed message is a timer tick or a stop request queued
	// from another goroutine, never work the running handler waits for.
	if from != to {
		if c := e.state.caller.Load(); c != 0 && s.Kind == "Data" {
			s.Parent = int(c) - 1
		} else if h := e.state.handler.Load(); h != 0 {
			s.Parent = int(h) - 1
		} else if c != 0 {
			s.Parent = int(c) - 1
		}
	}
	p := e.pair(to)
	p.mu.Lock()
	s.Seq = p.seq + 1
	var kept proto.Message
	if keep == keepAll || keep == keepSampled && s.Seq%SampleEvery == 0 {
		kept = msg
	}
	idx := e.rec.begin(s, kept)
	err := e.inner.Send(to, msg)
	if err == nil {
		// A refused message was never on the wire and takes no sequence
		// number, or every later match of the pair would be off by one.
		p.seq = s.Seq
	}
	p.mu.Unlock()
	e.rec.end(idx, err != nil)
	return err
}

type keepRule int

const (
	keepNone keepRule = iota
	keepSampled
	keepAll
)

// describe fills the span's message fields and says whether the
// message should be kept. It uses type assertions and reflection, not
// a type switch over proto types: the switch form is reserved for
// component handlers (distqlint protoexhaustive).
func describe(s *Span, msg proto.Message) keepRule {
	if d, ok := msg.(proto.Data); ok {
		s.Kind, s.Bytes = "Data", proto.WireSize(d)
		return keepAll
	}
	if d, ok := msg.(proto.ResultData); ok {
		s.Kind, s.Bytes = "ResultData", proto.WireSize(d)
		return keepSampled
	}
	if t, ok := msg.(proto.Tick); ok {
		s.Kind = "Tick/" + t.Kind
		return keepNone
	}
	v := reflect.ValueOf(msg)
	s.Kind = v.Type().Name()
	if v.Kind() == reflect.Struct {
		if f := v.FieldByName("Epoch"); f.IsValid() && f.Kind() == reflect.Uint64 {
			s.Epoch = f.Uint()
		}
	}
	s.Bytes = proto.WireSize(msg)
	if _, ok := msg.(proto.StateTransfer); ok {
		return keepAll
	}
	if _, ok := msg.(proto.StateDelta); ok {
		return keepSampled
	}
	return keepNone
}
