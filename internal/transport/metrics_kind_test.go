package transport

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/proto"
)

// A message of a wire kind whose series were resolved once records
// without allocating: no label rendering and no registry lookup per
// message, on either side.
func TestMetricsResolveEachKindOnce(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, "engine")
	msg := proto.Data{Payload: make([]byte, 16)}
	kind := proto.WireKindOf(msg)
	if allocs := testing.AllocsPerRun(100, func() {
		m.sentKind(kind, msg, 21, 0)
		m.receivedKind(kind, msg, 21)
	}); allocs != 0 {
		t.Fatalf("recording a Data send and receive allocated %v times", allocs)
	}
	if v := reg.Counter("distq_engine_transport_send_total", obs.L("type", "Data")).Value(); v != 101 {
		t.Fatalf("send_total{Data} = %v, want 101", v)
	}
	if v := reg.Counter("distq_engine_transport_recv_bytes_total", obs.L("type", "Data")).Value(); v != 101*21 {
		t.Fatalf("recv_bytes_total{Data} = %v, want %d", v, 101*21)
	}
}
