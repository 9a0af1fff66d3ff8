package transport

import (
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
)

// Metrics records a node's transport activity into an obs.Registry:
// per-message-type send/receive counters, byte counters, and a
// send-latency histogram (wall seconds; Send latency includes any
// backpressure blocking). Metric names follow the scheme
// distq_<node_kind>_transport_<name>. A nil *Metrics is a valid no-op.
//
// Each wire kind's series are looked up in the registry once, by the
// kind's first message in that direction, and kept in sends/recvs
// indexed by kind, so a message pays no label rendering or registry
// lock. A message of no wire kind (only the in-process transport
// carries one) is looked up every time.
type Metrics struct {
	reg    *obs.Registry
	prefix string
	sends  [256]atomic.Pointer[sendSeries]
	recvs  [256]atomic.Pointer[recvSeries]
}

// sendSeries and recvSeries are one message type's series.
type sendSeries struct {
	total, bytes *obs.Counter
	seconds      *obs.Histogram
}

type recvSeries struct{ total, bytes *obs.Counter }

// NewMetrics builds transport metrics for one node, e.g.
// NewMetrics(reg, "engine") → distq_engine_transport_send_total{type=...}.
func NewMetrics(reg *obs.Registry, nodeKind string) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{reg: reg, prefix: "distq_" + nodeKind + "_transport_"}
	reg.Help(m.prefix+"send_total", "messages sent, by message type")
	reg.Help(m.prefix+"send_bytes_total", "bytes sent, by message type")
	reg.Help(m.prefix+"recv_total", "messages received, by message type")
	reg.Help(m.prefix+"recv_bytes_total", "bytes received, by message type")
	reg.Help(m.prefix+"send_seconds", "Send call latency (wall), by message type")
	reg.Help(m.prefix+"credit_granted_total", "data-path credit bytes granted by peers, by peer")
	reg.Help(m.prefix+"credit_blocked_total", "sends that blocked awaiting data-path credit, by peer")
	return m
}

// MsgType names a proto message for metric labels ("Data", "CptV", ...).
func MsgType(msg proto.Message) string {
	if msg == nil {
		return "nil"
	}
	t := reflect.TypeOf(msg)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if name := t.Name(); name != "" {
		return name
	}
	return t.String()
}

// sent records one outbound message.
func (m *Metrics) sent(msg proto.Message, bytes int, elapsed time.Duration) {
	if m != nil {
		m.sentKind(proto.WireKindOf(msg), msg, bytes, elapsed)
	}
}

// sentKind records one outbound message of wire kind kind.
func (m *Metrics) sentKind(kind proto.WireKind, msg proto.Message, bytes int, elapsed time.Duration) {
	if m == nil {
		return
	}
	s := m.sends[kind].Load()
	if s == nil {
		l := obs.L("type", MsgType(msg))
		s = &sendSeries{
			total:   m.reg.Counter(m.prefix+"send_total", l),
			bytes:   m.reg.Counter(m.prefix+"send_bytes_total", l),
			seconds: m.reg.Histogram(m.prefix+"send_seconds", obs.LatencyBuckets, l),
		}
		if kind != proto.WireNone {
			m.sends[kind].Store(s)
		}
	}
	s.total.Inc()
	s.bytes.Add(float64(bytes))
	s.seconds.ObserveDuration(elapsed)
}

// creditGranted records data-path credit bytes granted by a peer (counted
// on the sending side, when the grant is applied to its window).
func (m *Metrics) creditGranted(peer partition.NodeID, bytes int64) {
	if m == nil {
		return
	}
	m.reg.Counter(m.prefix+"credit_granted_total", obs.L("peer", string(peer))).Add(float64(bytes))
}

// creditBlocked records one Send that had to wait for data-path credit.
func (m *Metrics) creditBlocked(peer partition.NodeID) {
	if m == nil {
		return
	}
	m.reg.Counter(m.prefix+"credit_blocked_total", obs.L("peer", string(peer))).Inc()
}

// received records one inbound message.
func (m *Metrics) received(msg proto.Message, bytes int) {
	if m != nil {
		m.receivedKind(proto.WireKindOf(msg), msg, bytes)
	}
}

// receivedKind records one inbound message of wire kind kind.
func (m *Metrics) receivedKind(kind proto.WireKind, msg proto.Message, bytes int) {
	if m == nil {
		return
	}
	s := m.recvs[kind].Load()
	if s == nil {
		l := obs.L("type", MsgType(msg))
		s = &recvSeries{
			total: m.reg.Counter(m.prefix+"recv_total", l),
			bytes: m.reg.Counter(m.prefix+"recv_bytes_total", l),
		}
		if kind != proto.WireNone {
			m.recvs[kind].Store(s)
		}
	}
	s.total.Inc()
	s.bytes.Add(float64(bytes))
}

// Instrumentable is the optional interface networks implement to record
// transport metrics for a node. Instrument must be called before the
// node's Attach.
type Instrumentable interface {
	Instrument(node partition.NodeID, m *Metrics)
}

// approxSize estimates a message's wire footprint for the in-process
// transport, which never serializes: the dominant payloads are counted
// exactly, everything else uses a flat envelope estimate. The TCP
// transport reports exact frame sizes instead.
func approxSize(msg proto.Message) int {
	const envelope = 64
	//distqlint:allow protoexhaustive: size estimator over payload-bearing types, not a handler
	switch m := msg.(type) {
	case proto.Data:
		return envelope + len(m.Payload)
	case proto.ResultData:
		return envelope + len(m.Payload)
	case proto.StateTransfer:
		n := envelope
		for _, b := range m.Images {
			n += len(b)
		}
		return n
	default:
		return envelope
	}
}
