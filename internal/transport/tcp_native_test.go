package transport

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
)

// dataSink records Data payload copies. Native payloads alias the
// pooled frame buffer, which the transport recycles after the handler
// returns, so the handler must copy before retaining — exactly the
// contract production handlers honour by decoding into their own slab.
type dataSink struct {
	mu       sync.Mutex
	payloads [][]byte
	versions []uint64
	others   []proto.Message
	notify   chan struct{}
}

func newDataSink() *dataSink { return &dataSink{notify: make(chan struct{}, 4096)} }

func (s *dataSink) handle(_ partition.NodeID, msg proto.Message) {
	s.mu.Lock()
	if d, ok := msg.(proto.Data); ok {
		s.payloads = append(s.payloads, append([]byte(nil), d.Payload...))
		s.versions = append(s.versions, d.MapVersion)
	} else {
		s.others = append(s.others, copyMessage(msg))
	}
	s.mu.Unlock()
	s.notify <- struct{}{}
}

// copyMessage deep-copies the byte slices of natively decoded messages,
// which alias the pooled frame buffer until the handler returns.
func copyMessage(msg proto.Message) proto.Message {
	cp := func(b []byte) []byte { return append([]byte(nil), b...) }
	cpList := func(ls [][]byte) [][]byte {
		out := make([][]byte, len(ls))
		for i := range ls {
			out[i] = cp(ls[i])
		}
		return out
	}
	switch m := msg.(type) {
	case proto.StateTransfer:
		m.Images = cpList(m.Images)
		return m
	case proto.StateDelta:
		entries := make([]proto.DeltaEntry, len(m.Entries))
		copy(entries, m.Entries)
		for i := range entries {
			entries[i].Payload = cp(entries[i].Payload)
		}
		m.Entries = entries
		return m
	case proto.ResultData:
		m.Payload = cp(m.Payload)
		return m
	}
	return msg
}

func (s *dataSink) waitData(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		s.mu.Lock()
		have := len(s.payloads)
		s.mu.Unlock()
		if have >= n {
			return
		}
		select {
		case <-s.notify:
		case <-deadline:
			t.Fatalf("timed out waiting for %d Data messages, have %d", n, have)
		}
	}
}

// twoNetPair wires a sender on netA to a receiver on netB (usually the
// same network).
func twoNetPair(t *testing.T, netA, netB *TCP, h Handler) Endpoint {
	t.Helper()
	if _, err := netB.Attach("b", h); err != nil {
		t.Fatal(err)
	}
	a, err := netA.Attach("a", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-patch the post-bind addresses between the directories.
	addrB, _ := netB.Addr("b")
	netA.AddNode("b", addrB)
	addrA, _ := netA.Addr("a")
	netB.AddNode("a", addrA)
	return a
}

func freshDir() map[partition.NodeID]string {
	return map[partition.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"}
}

// TestTCPBulkKindsRoundTrip sends every bulk data-plane message (the
// kinds whose decode aliases the pooled frame buffer) plus two control
// messages with variable-length fields, and checks the contents arrive
// intact and in order.
func TestTCPBulkKindsRoundTrip(t *testing.T) {
	n := NewTCP(freshDir())
	defer n.Close()
	sink := newDataSink()
	a := twoNetPair(t, n, n, sink.handle)

	if err := a.Send("b", proto.Data{Payload: []byte("payload-0"), MapVersion: 3}); err != nil {
		t.Fatal(err)
	}
	sink.waitData(t, 1)

	xfer := proto.StateTransfer{
		Epoch:  7,
		Images: [][]byte{[]byte("groupA"), []byte("groupB")},
		Trace:  obs.TraceContext{TraceID: 11, SpanID: 13, Node: "coord"},
	}
	delta := proto.StateDelta{
		From:        "a",
		Incarnation: 9,
		Seq:         5,
		Entries: []proto.DeltaEntry{
			{Group: 1, Kind: proto.DeltaSeed, Payload: []byte("seed-img")},
			{Group: 2, Kind: proto.DeltaAppend, Payload: []byte("append")},
		},
	}
	res := proto.ResultData{Node: "a", Payload: []byte("results"), Phase: proto.PhaseCleanup}
	stats := proto.StatsReport{Node: "a", MemBytes: 1 << 33, ReplLag: map[partition.ID]int64{7: 70, 2: 20}, ReplVersion: 4}
	rmap := proto.ReplicaMap{Version: 4, Entries: []proto.ReplicaEntry{{Group: 2, Primary: "a", Follower: "b"}, {Group: 7, Primary: "b", Follower: "a"}}}
	for _, msg := range []proto.Message{xfer, delta, res, stats, rmap} {
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		sink.mu.Lock()
		have := len(sink.others)
		sink.mu.Unlock()
		if have >= 5 {
			break
		}
		select {
		case <-sink.notify:
		case <-deadline:
			t.Fatal("timed out waiting for native state messages")
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	gx, ok := sink.others[0].(proto.StateTransfer)
	if !ok || gx.Epoch != 7 || len(gx.Images) != 2 || string(gx.Images[1]) != "groupB" || gx.Trace != xfer.Trace {
		t.Fatalf("StateTransfer mangled: %+v", sink.others[0])
	}
	gd, ok := sink.others[1].(proto.StateDelta)
	if !ok || gd.From != "a" || gd.Incarnation != 9 || gd.Seq != 5 || len(gd.Entries) != 2 ||
		gd.Entries[0].Kind != proto.DeltaSeed || string(gd.Entries[0].Payload) != "seed-img" ||
		gd.Entries[1].Kind != proto.DeltaAppend || string(gd.Entries[1].Payload) != "append" {
		t.Fatalf("StateDelta mangled: %+v", sink.others[1])
	}
	gr, ok := sink.others[2].(proto.ResultData)
	if !ok || gr.Node != "a" || string(gr.Payload) != "results" || gr.Phase != proto.PhaseCleanup {
		t.Fatalf("ResultData mangled: %+v", sink.others[2])
	}
	if !reflect.DeepEqual(sink.others[3], proto.Message(stats)) || !reflect.DeepEqual(sink.others[4], proto.Message(rmap)) {
		t.Fatalf("control messages mangled: %+v, %+v", sink.others[3], sink.others[4])
	}
}

// TestTCPMidStreamResetDataRecovers severs an established connection
// under coalesced data frames; the sender must redial (a fresh hello
// and a fresh credit window) and deliver again.
func TestTCPMidStreamResetDataRecovers(t *testing.T) {
	n := NewTCP(freshDir())
	defer n.Close()
	sink := newDataSink()
	a := twoNetPair(t, n, n, sink.handle)

	if err := a.Send("b", proto.Data{Payload: []byte("one"), MapVersion: 1}); err != nil {
		t.Fatal(err)
	}
	sink.waitData(t, 1)
	ep := a.(*tcpEndpoint)
	ep.mu.Lock()
	conn := ep.conns["b"]
	ep.mu.Unlock()
	conn.c.Close()

	// Data frames coalesce, so the write that discovers the dead socket
	// may be the backstop flush rather than the Send itself; probe until
	// the redial lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_ = a.Send("b", proto.Data{Payload: []byte("two"), MapVersion: 1}) //distqlint:allow uncheckederr: probing a reset conn until the redial lands
		sink.mu.Lock()
		have := len(sink.payloads)
		sink.mu.Unlock()
		if have >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sender never recovered from the reset")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ep.mu.Lock()
	redialed := ep.conns["b"]
	ep.mu.Unlock()
	if redialed == conn || redialed == nil || redialed.credit == nil {
		t.Fatalf("no fresh connection with a credit window after the reset: %+v", redialed)
	}
}

// TestTCPCreditWindowAbove4GiB: the ack used to carry the window as a
// uint32, so SetCreditWindow(4 GiB) arrived as 0 — backpressure silently
// off. The sender must see the window it was promised.
func TestTCPCreditWindowAbove4GiB(t *testing.T) {
	const window = 1<<32 + 4096
	n := NewTCP(freshDir())
	n.SetCreditWindow(window)
	defer n.Close()
	sink := newDataSink()
	a := twoNetPair(t, n, n, sink.handle)
	if err := a.Send("b", proto.Data{Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	sink.waitData(t, 1)
	ep := a.(*tcpEndpoint)
	ep.mu.Lock()
	credit := ep.conns["b"].credit
	ep.mu.Unlock()
	if credit == nil {
		t.Fatal("a window above 4 GiB turned credit off")
	}
	credit.mu.Lock()
	defer credit.mu.Unlock()
	if want := int64(window - (4 + 1 + 8 + 100)); credit.avail != want {
		t.Fatalf("window after one 113-byte frame = %d, want %d", credit.avail, want)
	}
}

// TestTCPCreditBackpressure shrinks the credit window below the
// outstanding data volume and parks the receiver's handler: sends must
// block (credit_blocked_total advances) until the handler consumes and
// grants flow back (credit_granted_total advances), after which every
// frame is delivered intact.
func TestTCPCreditBackpressure(t *testing.T) {
	n := NewTCP(freshDir())
	n.SetCreditWindow(4096)
	n.SetCreditTimeout(10 * time.Second)
	defer n.Close()
	reg := obs.NewRegistry()
	n.Instrument("a", NewMetrics(reg, "generator"))

	gate := make(chan struct{})
	var gateOnce, gateClose sync.Once
	closeGate := func() { gateClose.Do(func() { close(gate) }) }
	// Unpark the handler even on failure paths, or the deferred Close
	// would wait on the parked dispatcher forever.
	defer closeGate()
	var received atomic.Int64
	h := func(_ partition.NodeID, msg proto.Message) {
		if _, ok := msg.(proto.Data); ok {
			// Park the first delivery until the test has observed the
			// sender blocking; later ones flow freely so credit drains.
			gateOnce.Do(func() { <-gate })
			received.Add(1)
		}
	}
	a := twoNetPair(t, n, n, h)

	const frames = 12
	payload := bytes.Repeat([]byte{0xAB}, 1024) // ~4 frames fill the window
	done := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := a.Send("b", proto.Data{Payload: payload, MapVersion: 1}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// The window admits ~4 frames; the sender goroutine must stall with
	// the handler parked.
	blockedCounter := reg.Counter("distq_generator_transport_credit_blocked_total", obs.L("peer", "b"))
	waitDeadline := time.Now().Add(5 * time.Second)
	for blockedCounter.Value() == 0 {
		if time.Now().After(waitDeadline) {
			t.Fatal("sender never blocked on credit despite a full window")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("sender finished while the receiver was parked (err: %v)", err)
	default:
	}

	closeGate()
	if err := <-done; err != nil {
		t.Fatalf("send failed after credit release: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < frames {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames delivered", received.Load(), frames)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v := reg.Counter("distq_generator_transport_credit_granted_total", obs.L("peer", "b")).Value(); v <= 0 {
		t.Fatalf("credit_granted_total = %v, want > 0", v)
	}
}

// TestTCPCreditTimeoutSurfacesError parks the receiver forever with a
// tiny window and a short timeout: the blocked Send must return an
// error (which the split router treats as an unreachable owner) rather
// than hang.
func TestTCPCreditTimeoutSurfacesError(t *testing.T) {
	n := NewTCP(freshDir())
	n.SetCreditWindow(512)
	n.SetCreditTimeout(100 * time.Millisecond)
	defer n.Close()

	block := make(chan struct{})
	h := func(_ partition.NodeID, msg proto.Message) {
		if _, ok := msg.(proto.Data); ok {
			<-block
		}
	}
	defer close(block)
	a := twoNetPair(t, n, n, h)

	payload := bytes.Repeat([]byte{1}, 400)
	var sendErr error
	deadline := time.Now().Add(10 * time.Second)
	for sendErr == nil && time.Now().Before(deadline) {
		sendErr = a.Send("b", proto.Data{Payload: payload, MapVersion: 1})
	}
	if sendErr == nil {
		t.Fatal("sends kept succeeding with a wedged receiver and a full window")
	}
}

// TestTCPCoalescedFramesDeliverAndFlush checks that a burst of small
// native frames (each far below the watermark) still reaches the
// receiver via the backstop flush, and that FlushOutbound forces them out
// synchronously.
func TestTCPCoalescedFramesDeliverAndFlush(t *testing.T) {
	n := NewTCP(freshDir())
	defer n.Close()
	sink := newDataSink()
	a := twoNetPair(t, n, n, sink.handle)

	const burst = 64
	for i := 0; i < burst; i++ {
		if err := a.Send("b", proto.Data{Payload: []byte{byte(i)}, MapVersion: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	FlushOutbound(a)
	sink.waitData(t, burst)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i := 0; i < burst; i++ {
		// FIFO and integrity across the coalesced batch.
		if sink.versions[i] != uint64(i) || len(sink.payloads[i]) != 1 || sink.payloads[i][0] != byte(i) {
			t.Fatalf("frame %d arrived as version %d payload %v", i, sink.versions[i], sink.payloads[i])
		}
	}
}

// TestTCPNativeBufferRecycling hammers the data path with concurrent
// distinct payloads to shake out pooled-read-buffer aliasing: every
// payload must arrive exactly as sent (run under -race in CI).
func TestTCPNativeBufferRecycling(t *testing.T) {
	n := NewTCP(freshDir())
	defer n.Close()
	var mu sync.Mutex
	seen := make(map[uint64][]byte)
	h := func(_ partition.NodeID, msg proto.Message) {
		if d, ok := msg.(proto.Data); ok {
			mu.Lock()
			seen[d.MapVersion] = append([]byte(nil), d.Payload...)
			mu.Unlock()
		}
	}
	a := twoNetPair(t, n, n, h)

	const total = 400
	for i := 0; i < total; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 64+(i%1024)*3)
		if err := a.Send("b", proto.Data{Payload: payload, MapVersion: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	FlushOutbound(a)
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		have := len(seen)
		mu.Unlock()
		if have >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d payloads arrived", have, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < total; i++ {
		want := bytes.Repeat([]byte{byte(i)}, 64+(i%1024)*3)
		if !bytes.Equal(seen[uint64(i)], want) {
			t.Fatalf("payload %d corrupted: got %d bytes, want %d", i, len(seen[uint64(i)]), len(want))
		}
	}
}
