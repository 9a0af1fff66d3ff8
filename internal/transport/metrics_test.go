package transport

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
)

func TestMsgType(t *testing.T) {
	cases := []struct {
		msg  proto.Message
		want string
	}{
		{proto.Data{}, "Data"},
		{proto.CptV{}, "CptV"},
		{&proto.StateTransfer{}, "StateTransfer"},
		{nil, "nil"},
	}
	for _, c := range cases {
		if got := MsgType(c.msg); got != c.want {
			t.Errorf("MsgType(%T) = %q, want %q", c.msg, got, c.want)
		}
	}
}

func TestInprocMetrics(t *testing.T) {
	net := NewInproc()
	defer net.Close()

	regA := obs.NewRegistry()
	regB := obs.NewRegistry()
	net.Instrument("a", NewMetrics(regA, "engine"))
	net.Instrument("b", NewMetrics(regB, "engine"))

	got := make(chan proto.Message, 4)
	epA, err := net.Attach("a", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("b", func(_ partition.NodeID, m proto.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 100)
	if err := epA.Send("b", proto.Data{Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := epA.Send("b", proto.Tick{Kind: "stats"}); err != nil {
		t.Fatal(err)
	}
	<-got
	<-got

	if v := regA.Counter("distq_engine_transport_send_total", obs.L("type", "Data")).Value(); v != 1 {
		t.Fatalf("send_total{Data} = %v", v)
	}
	if v := regA.Counter("distq_engine_transport_send_bytes_total", obs.L("type", "Data")).Value(); v < 100 {
		t.Fatalf("send_bytes_total{Data} = %v, want >= 100", v)
	}
	if h := regA.Histogram("distq_engine_transport_send_seconds", obs.LatencyBuckets, obs.L("type", "Tick")); h.Snapshot().Count != 1 {
		t.Fatalf("send_seconds{Tick} count = %d", h.Snapshot().Count)
	}
	if v := regB.Counter("distq_engine_transport_recv_total", obs.L("type", "Data")).Value(); v != 1 {
		t.Fatalf("recv_total{Data} = %v", v)
	}
	if v := regB.Counter("distq_engine_transport_recv_bytes_total", obs.L("type", "Data")).Value(); v < 100 {
		t.Fatalf("recv_bytes_total{Data} = %v, want >= 100", v)
	}
	// The sender saw no inbound traffic.
	if v := regA.Counter("distq_engine_transport_recv_total", obs.L("type", "Data")).Value(); v != 0 {
		t.Fatalf("sender recv_total = %v", v)
	}
}

func TestTCPMetricsExactFrameBytes(t *testing.T) {
	net := NewTCP(map[partition.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	defer net.Close()

	regA := obs.NewRegistry()
	regB := obs.NewRegistry()
	net.Instrument("a", NewMetrics(regA, "generator"))
	net.Instrument("b", NewMetrics(regB, "engine"))

	got := make(chan proto.Message, 1)
	epA, err := net.Attach("a", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("b", func(_ partition.NodeID, m proto.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	if err := epA.Send("b", proto.Data{Payload: make([]byte, 512)}); err != nil {
		t.Fatal(err)
	}
	<-got

	sent := regA.Counter("distq_generator_transport_send_bytes_total", obs.L("type", "Data")).Value()
	recv := regB.Counter("distq_engine_transport_recv_bytes_total", obs.L("type", "Data")).Value()
	if sent < 512 {
		t.Fatalf("send_bytes = %v, want >= payload", sent)
	}
	if sent != recv {
		t.Fatalf("TCP frame accounting differs: sent %v, received %v", sent, recv)
	}
	var b strings.Builder
	if err := regB.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `distq_engine_transport_recv_total{type="Data"} 1`) {
		t.Fatalf("missing per-type counter in exposition:\n%s", b.String())
	}
}

// TestTCPCloseDuringSends is the regression test for shutdown races: many
// goroutines keep sending (and redialing) while the network closes. Run
// with -race; the test passes if nothing panics or data-races.
func TestTCPCloseDuringSends(t *testing.T) {
	net := NewTCP(map[partition.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	reg := obs.NewRegistry()
	net.Instrument("a", NewMetrics(reg, "engine"))

	epA, err := net.Attach("a", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("b", func(partition.NodeID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				// Errors are expected once the network goes down; the
				// invariant is no panic and no race.
				_ = epA.Send("b", proto.Tick{Kind: "stats"})
			}
		}()
	}
	close(start)
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Close is idempotent, even concurrently with itself.
	var cwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			_ = net.Close()
		}()
	}
	cwg.Wait()
	if err := epA.Send("b", proto.Tick{Kind: "stats"}); err == nil {
		t.Fatal("send succeeded after network close")
	}
}

// TestInprocCloseDuringSends covers the same shutdown window on the
// in-process transport.
func TestInprocCloseDuringSends(t *testing.T) {
	net := NewInproc()
	net.Instrument("a", NewMetrics(obs.NewRegistry(), "engine"))
	epA, err := net.Attach("a", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("b", func(partition.NodeID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				_ = epA.Send("b", proto.Tick{Kind: "stats"})
			}
		}()
	}
	close(start)
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestNilMetricsIsNoOp(t *testing.T) {
	var m *Metrics
	m.sent(proto.Data{}, 10, 0)
	m.received(proto.Data{}, 10)
	if NewMetrics(nil, "engine") != nil {
		t.Fatal("NewMetrics(nil) should be nil")
	}
}

func TestApproxSizeCountsPayloads(t *testing.T) {
	small := approxSize(proto.Tick{Kind: "stats"})
	data := approxSize(proto.Data{Payload: make([]byte, 1000)})
	if data < small+1000 {
		t.Fatalf("approxSize(Data) = %d, want >= %d", data, small+1000)
	}
	xfer := approxSize(proto.StateTransfer{Images: [][]byte{make([]byte, 300), make([]byte, 200)}})
	if xfer < small+500 {
		t.Fatalf("approxSize(StateTransfer) = %d, want >= %d", xfer, small+500)
	}
}
