package split

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
)

// fakeEndpoint records sent messages per destination.
type fakeEndpoint struct {
	mu   sync.Mutex
	sent []sentMsg
}

type sentMsg struct {
	to  partition.NodeID
	msg proto.Message
}

func (f *fakeEndpoint) Node() partition.NodeID { return "gen" }

func (f *fakeEndpoint) Send(to partition.NodeID, msg proto.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, sentMsg{to, msg})
	return nil
}

func (f *fakeEndpoint) Close() error { return nil }

func (f *fakeEndpoint) messages() []sentMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]sentMsg, len(f.sent))
	copy(out, f.sent)
	return out
}

var _ transport.Endpoint = (*fakeEndpoint)(nil)

func newRouter(t *testing.T, ep transport.Endpoint, batch int) *Router {
	t.Helper()
	pf := partition.NewFunc(4)
	owner := []partition.NodeID{"m1", "m2", "m1", "m2"}
	r, err := New(ep, "gc", pf, owner, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mkTuple(key uint64) tuple.Tuple { return tuple.Tuple{Key: key, Seq: key} }

// decodeData extracts the tuples of a Data message.
func decodeData(t *testing.T, m proto.Message) []tuple.Tuple {
	t.Helper()
	d, ok := m.(proto.Data)
	if !ok {
		t.Fatalf("message is %T, want Data", m)
	}
	b, err := tuple.DecodeBatch(d.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return b.Tuples
}

func TestRouteByPartitionMap(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 1) // batch of 1: every tuple sends immediately
	for key := uint64(0); key < 4; key++ {
		if err := r.Route(mkTuple(key)); err != nil {
			t.Fatal(err)
		}
	}
	msgs := ep.messages()
	if len(msgs) != 4 {
		t.Fatalf("sent %d messages", len(msgs))
	}
	wantOwner := []partition.NodeID{"m1", "m2", "m1", "m2"}
	for i, m := range msgs {
		if m.to != wantOwner[i] {
			t.Fatalf("tuple %d routed to %s, want %s", i, m.to, wantOwner[i])
		}
	}
	if r.Sent() != 4 {
		t.Fatalf("Sent = %d", r.Sent())
	}
}

func TestBatchingAndFlush(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 3)
	r.Route(mkTuple(0))
	r.Route(mkTuple(0))
	if len(ep.messages()) != 0 {
		t.Fatal("partial batch sent early")
	}
	r.Route(mkTuple(0)) // third tuple reaches the batch size
	if len(ep.messages()) != 1 {
		t.Fatalf("full batch not sent: %d messages", len(ep.messages()))
	}
	r.Route(mkTuple(1))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	msgs := ep.messages()
	if len(msgs) != 2 {
		t.Fatalf("flush did not send partial batch: %d messages", len(msgs))
	}
	if got := decodeData(t, msgs[1].msg); len(got) != 1 || got[0].Key != 1 {
		t.Fatalf("flushed batch = %v", got)
	}
}

func TestPauseBuffersAndEmitsMarker(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 10)
	r.Route(mkTuple(0)) // pending for m1
	handled, err := r.HandleControl(proto.Pause{Epoch: 7, Partitions: []partition.ID{0}, Owner: "m1"})
	if !handled || err != nil {
		t.Fatalf("pause: handled=%v err=%v", handled, err)
	}
	msgs := ep.messages()
	// Pause must first flush pending data for m1, then send the marker,
	// preserving FIFO data-before-marker.
	if len(msgs) != 2 {
		t.Fatalf("pause sent %d messages, want flush+marker", len(msgs))
	}
	if msgs[0].to != "m1" {
		t.Fatalf("first message to %s, want m1", msgs[0].to)
	}
	if _, ok := msgs[0].msg.(proto.Data); !ok {
		t.Fatalf("first message is %T, want Data", msgs[0].msg)
	}
	marker, ok := msgs[1].msg.(proto.PauseMarker)
	if !ok || marker.Epoch != 7 || msgs[1].to != "m1" {
		t.Fatalf("second message = %+v to %s", msgs[1].msg, msgs[1].to)
	}
	// Tuples for the paused partition are buffered, not sent.
	r.Route(mkTuple(0))
	r.Route(mkTuple(4)) // also partition 0
	r.Flush()
	if len(ep.messages()) != 2 {
		t.Fatalf("paused tuples were sent: %d messages", len(ep.messages()))
	}
	if r.BufferedPeak() != 2 {
		t.Fatalf("BufferedPeak = %d", r.BufferedPeak())
	}
	// Unpaused partitions still flow.
	r.Route(mkTuple(1))
	r.Flush()
	if len(ep.messages()) != 3 {
		t.Fatal("unpaused tuple did not flow")
	}
}

func TestRemapFlushesBufferToNewOwnerThenAcks(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 10)
	r.HandleControl(proto.Pause{Epoch: 3, Partitions: []partition.ID{0}, Owner: "m1"})
	r.Route(mkTuple(0))
	r.Route(mkTuple(4))
	before := len(ep.messages())

	handled, err := r.HandleControl(proto.Remap{Epoch: 3, Partitions: []partition.ID{0}, Owner: "m2", Version: 9})
	if !handled || err != nil {
		t.Fatalf("remap: handled=%v err=%v", handled, err)
	}
	msgs := ep.messages()[before:]
	if len(msgs) != 2 {
		t.Fatalf("remap sent %d messages, want data+ack", len(msgs))
	}
	released := decodeData(t, msgs[0].msg)
	if msgs[0].to != "m2" || len(released) != 2 {
		t.Fatalf("released %d tuples to %s, want 2 to m2", len(released), msgs[0].to)
	}
	if released[0].Key != 0 || released[1].Key != 4 {
		t.Fatalf("released tuples out of order: %v", released)
	}
	ack, ok := msgs[1].msg.(proto.RemapAck)
	if !ok || ack.Epoch != 3 || msgs[1].to != "gc" {
		t.Fatalf("ack = %+v to %s", msgs[1].msg, msgs[1].to)
	}
	if r.Version() != 9 {
		t.Fatalf("Version = %d, want 9", r.Version())
	}
	if r.Owner(0) != "m2" {
		t.Fatalf("Owner(0) = %s, want m2", r.Owner(0))
	}
	// New tuples route to the new owner.
	r.Route(mkTuple(0))
	r.Flush()
	last := ep.messages()[len(ep.messages())-1]
	if last.to != "m2" {
		t.Fatalf("post-remap tuple routed to %s", last.to)
	}
}

func TestRemapIgnoresStaleVersion(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 10)
	r.HandleControl(proto.Remap{Epoch: 1, Partitions: []partition.ID{0}, Owner: "m2", Version: 9})
	r.HandleControl(proto.Remap{Epoch: 2, Partitions: []partition.ID{1}, Owner: "m1", Version: 5})
	if r.Version() != 9 {
		t.Fatalf("Version = %d, stale version overwrote newer", r.Version())
	}
	// The ownership change still applies (idempotent replays are allowed;
	// only the version counter is monotonic).
	if r.Owner(1) != "m1" {
		t.Fatalf("Owner(1) = %s", r.Owner(1))
	}
}

func TestHandleControlIgnoresOtherMessages(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 10)
	handled, err := r.HandleControl(proto.Stop{})
	if handled || err != nil {
		t.Fatalf("HandleControl(Stop) = %v, %v", handled, err)
	}
}

func TestNewValidatesMapLength(t *testing.T) {
	ep := &fakeEndpoint{}
	if _, err := New(ep, "gc", partition.NewFunc(4), []partition.NodeID{"m1"}, 1, 0); err == nil {
		t.Fatal("short owner map accepted")
	}
}

func TestDefaultBatchSizeApplied(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 0)
	if r.batchSize != DefaultBatchSize {
		t.Fatalf("batchSize = %d", r.batchSize)
	}
}

func TestPauseOutOfRangePartitionIgnored(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 10)
	if _, err := r.HandleControl(proto.Pause{Epoch: 1, Partitions: []partition.ID{99}, Owner: "m1"}); err != nil {
		t.Fatal(err)
	}
	r.Route(mkTuple(3))
	r.Flush()
	if len(ep.messages()) < 2 { // marker + data
		t.Fatal("routing broken after out-of-range pause")
	}
}

// failingEndpoint wraps fakeEndpoint, failing every Send to the nodes
// in down (a dead engine's dial error on TCP).
type failingEndpoint struct {
	fakeEndpoint
	down map[partition.NodeID]bool
}

func (f *failingEndpoint) Send(to partition.NodeID, msg proto.Message) error {
	if f.down[to] {
		return fmt.Errorf("transport: dial %s: connection refused", to)
	}
	return f.fakeEndpoint.Send(to, msg)
}

func TestUnreachableOwnerParksBatchUntilRemap(t *testing.T) {
	ep := &failingEndpoint{down: map[partition.NodeID]bool{"m2": true}}
	r := newRouter(t, ep, 1) // batch of 1: every tuple sends immediately
	// Keys 1 and 3 hash to partitions owned by m2 (dead): both sends
	// fail and must be parked, not lost and not fatal.
	for key := uint64(0); key < 4; key++ {
		if err := r.Route(mkTuple(key)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.SendFailures(); got != 2 {
		t.Fatalf("SendFailures = %d, want 2", got)
	}
	if got := r.PausedPartitions(); got != 2 {
		t.Fatalf("PausedPartitions = %d, want 2", got)
	}
	for _, m := range ep.messages() {
		if m.to == "m2" {
			t.Fatalf("message reached dead owner m2: %T", m.msg)
		}
	}
	// Tuples routed to parked partitions keep buffering.
	if err := r.Route(mkTuple(5)); err != nil { // 5%4=1 -> parked partition
		t.Fatal(err)
	}
	// Failover remap releases everything toward the promoted owner.
	if _, err := r.HandleControl(proto.Remap{Epoch: 9, Version: 2, Partitions: []partition.ID{1, 3}, Owner: "m1"}); err != nil {
		t.Fatal(err)
	}
	var released []tuple.Tuple
	for _, m := range ep.messages() {
		if m.to != "m1" {
			continue
		}
		if d, ok := m.msg.(proto.Data); ok {
			b, err := tuple.DecodeBatch(d.Payload)
			if err != nil {
				t.Fatal(err)
			}
			released = append(released, b.Tuples...)
		}
	}
	keys := make(map[uint64]bool)
	for _, tu := range released {
		keys[tu.Key] = true
	}
	for _, want := range []uint64{0, 1, 2, 3, 5} {
		if !keys[want] {
			t.Fatalf("key %d not delivered to m1 after remap (got %v)", want, keys)
		}
	}
	if got := r.PausedPartitions(); got != 0 {
		t.Fatalf("PausedPartitions after remap = %d, want 0", got)
	}
}

func TestMemberAddrExtendsDirectory(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 1)
	got := make(map[partition.NodeID]string)
	r.DirectoryExtender(func(n partition.NodeID, a string) { got[n] = a })
	handled, err := r.HandleControl(proto.MemberAddr{Node: "m3", Addr: "127.0.0.1:7103"})
	if err != nil || !handled {
		t.Fatalf("HandleControl = (%v, %v), want (true, nil)", handled, err)
	}
	if got["m3"] != "127.0.0.1:7103" {
		t.Fatalf("directory = %v, want m3 -> 127.0.0.1:7103", got)
	}
}

// TestRouteCopiesPayload routes every tuple from one buffer that is
// overwritten between calls. Staged, parked and already-sent tuples must
// all keep the bytes they were routed with: the router owns a copy by
// the time Route returns, and hands each batch its own buffer (the
// in-proc transport delivers Data.Payload by reference).
func TestRouteCopiesPayload(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 3)
	if _, err := r.HandleControl(proto.Pause{Epoch: 1, Owner: "m2", Partitions: []partition.ID{1}}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for key := uint64(0); key < 16; key++ {
		buf[0] = byte(key)
		if err := r.Route(tuple.Tuple{Key: key, Seq: key, Payload: buf}); err != nil {
			t.Fatal(err)
		}
	}
	buf[0] = 0xFF
	if _, err := r.HandleControl(proto.Remap{Epoch: 1, Version: 2, Partitions: []partition.ID{1}, Owner: "m1"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, m := range ep.messages() {
		if _, ok := m.msg.(proto.Data); !ok {
			continue
		}
		for _, tu := range decodeData(t, m.msg) {
			seen++
			if len(tu.Payload) != 1 || tu.Payload[0] != byte(tu.Key) {
				t.Fatalf("key %d delivered with payload %v", tu.Key, tu.Payload)
			}
		}
	}
	if seen != 16 {
		t.Fatalf("%d tuples delivered, routed 16", seen)
	}
}

// TestPauseOvertakenByItsRemapIsIgnored: a Pause the network delayed or
// duplicated past the Remap that ended its adaptation names an owner the
// partition no longer routes to. Pausing then would park the partition
// forever — no further Remap is coming — so the router must ignore it.
// (Seen as a promoted group whose input never resumed: the watchdog's
// per-tick Pause for the dead owner, delayed past the promotion's
// Remap.)
func TestPauseOvertakenByItsRemapIsIgnored(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 10)
	pause := proto.Pause{Epoch: 3, Partitions: []partition.ID{0, 2}, Owner: "m1"}
	r.HandleControl(pause)
	r.HandleControl(proto.Remap{Epoch: 4, Partitions: []partition.ID{0}, Owner: "m2", Version: 2})
	if _, err := r.HandleControl(pause); err != nil { // the straggler
		t.Fatal(err)
	}
	if got := r.PausedPartitions(); got != 1 {
		t.Fatalf("%d partitions paused, want only partition 2 (still m1's, still awaiting its Remap)", got)
	}
	before := len(ep.messages())
	r.Route(mkTuple(0))
	r.Flush()
	msgs := ep.messages()[before:]
	if len(msgs) != 1 || msgs[0].to != "m2" {
		t.Fatalf("tuple for the remapped partition: %d messages (first to %v), want one batch to m2", len(msgs), msgs)
	}
}

// copyingEndpoint is a transport.PayloadCopier: like TCP it is done
// with a Data payload when Send returns. It keeps a copy of each one
// (or, with discard, only counts the tuples), and fails the next fails
// sends.
type copyingEndpoint struct {
	fakeEndpoint
	discard bool
	tuples  int
	fails   int
}

func (c *copyingEndpoint) CopiesPayload() {}

func (c *copyingEndpoint) Send(to partition.NodeID, msg proto.Message) error {
	if c.fails > 0 {
		c.fails--
		return fmt.Errorf("transport: send to %s: connection reset", to)
	}
	d, ok := msg.(proto.Data)
	if !ok {
		return c.fakeEndpoint.Send(to, msg)
	}
	if c.discard {
		c.tuples += int(binary.LittleEndian.Uint32(d.Payload))
		return nil
	}
	d.Payload = bytes.Clone(d.Payload)
	return c.fakeEndpoint.Send(to, d)
}

var _ transport.PayloadCopier = (*copyingEndpoint)(nil)

// TestRouteReusesBatchOverCopier: over a transport that copies on Send
// the outbox keeps its buffer, so a full batch costs no allocation but
// the Data's boxing into a proto.Message (32 bytes), not a fresh 17 KB
// buffer.
func TestRouteReusesBatchOverCopier(t *testing.T) {
	ep := &copyingEndpoint{discard: true}
	r := newRouter(t, ep, DefaultBatchSize)
	payload := make([]byte, 40)
	seq := uint64(0)
	route := func() {
		seq++
		// Key 0: every tuple joins the same outbox.
		if err := r.Route(tuple.Tuple{Key: 0, Seq: seq, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	const batches = 10
	for i := 0; i < DefaultBatchSize; i++ {
		route() // the outbox's first buffer
	}
	if allocs := testing.AllocsPerRun(batches*DefaultBatchSize, route); allocs != 0 {
		t.Fatalf("Route allocates %v times per tuple over a copying transport, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches*DefaultBatchSize; i++ {
		route()
	}
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > batches*64 {
		t.Fatalf("%d batches allocated %d bytes, want at most the %d of their boxed messages", batches, bytes, batches*64)
	}
	if want := int(seq) / DefaultBatchSize * DefaultBatchSize; ep.tuples != want {
		t.Fatalf("%d tuples sent, want %d", ep.tuples, want)
	}
}

// TestRouteKeepsFreshBatchesByReference: over a transport that keeps
// Data.Payload by reference (in-process), every batch gets its own
// buffer, so each kept message still holds the tuples routed into it.
func TestRouteKeepsFreshBatchesByReference(t *testing.T) {
	ep := &fakeEndpoint{}
	r := newRouter(t, ep, 4)
	const batches = 20
	for i := 0; i < batches*4; i++ {
		if err := r.Route(tuple.Tuple{Key: 0, Seq: uint64(i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := ep.messages()
	if len(msgs) != batches {
		t.Fatalf("%d messages sent, want %d", len(msgs), batches)
	}
	for b, m := range msgs {
		for j, tu := range decodeData(t, m.msg) {
			if want := b*4 + j; tu.Seq != uint64(want) || len(tu.Payload) != 1 || tu.Payload[0] != byte(want) {
				t.Fatalf("batch %d tuple %d reads seq %d payload %v, want seq %d", b, j, tu.Seq, tu.Payload, want)
			}
		}
	}
}

// TestFailedSendOverCopierParksOwnedTuples: a batch whose send fails is
// parked before the outbox reuses its buffer, so the later batches that
// overwrite that buffer leave the parked tuples' payloads intact.
func TestFailedSendOverCopierParksOwnedTuples(t *testing.T) {
	ep := &copyingEndpoint{fails: 1}
	r := newRouter(t, ep, 2)
	route := func(key, seq uint64) {
		t.Helper()
		if err := r.Route(tuple.Tuple{Key: key, Seq: seq, Payload: []byte{byte(seq)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Partitions 0 and 2 share m1's outbox: the first batch (partition
	// 0) fails and is parked, the next four (partition 2) reuse its
	// buffer.
	route(0, 0)
	route(0, 1)
	if r.SendFailures() != 1 || r.PausedPartitions() != 1 {
		t.Fatalf("SendFailures = %d, PausedPartitions = %d, want 1 and 1", r.SendFailures(), r.PausedPartitions())
	}
	for seq := uint64(2); seq < 10; seq++ {
		route(2, seq)
	}
	if _, err := r.HandleControl(proto.Remap{Epoch: 1, Version: 2, Partitions: []partition.ID{0}, Owner: "m2"}); err != nil {
		t.Fatal(err)
	}
	var released []tuple.Tuple
	for _, m := range ep.messages() {
		if _, ok := m.msg.(proto.Data); ok && m.to == "m2" {
			released = append(released, decodeData(t, m.msg)...)
		}
	}
	if len(released) != 2 {
		t.Fatalf("remap released %d tuples, want the 2 parked", len(released))
	}
	for i, tu := range released {
		if tu.Seq != uint64(i) || len(tu.Payload) != 1 || tu.Payload[0] != byte(i) {
			t.Fatalf("parked tuple %d released as seq %d payload %v", i, tu.Seq, tu.Payload)
		}
	}
}

// TestCopierDropsOversizedBatchBuffer: a batch of 1 MiB tuples does not
// leave its buffer pinned in the outbox; once batches are small again
// the outbox goes back to keeping one.
func TestCopierDropsOversizedBatchBuffer(t *testing.T) {
	ep := &copyingEndpoint{discard: true}
	r := newRouter(t, ep, 2)
	route := func(payload []byte) {
		t.Helper()
		if err := r.Route(tuple.Tuple{Key: 0, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	huge := make([]byte, 1<<20)
	route(huge)
	route(huge)
	ob := &r.pending[r.dest[0]]
	if ep.tuples != 2 || cap(ob.buf) > maxKeptBatch {
		t.Fatalf("after a batch of 1 MiB tuples: %d tuples sent, outbox keeps %d bytes", ep.tuples, cap(ob.buf))
	}
	for i := 0; i < 4; i++ {
		route(make([]byte, 40))
	}
	if c := cap(ob.buf); c == 0 || c > maxKeptBatch {
		t.Fatalf("after small batches the outbox keeps %d bytes, want a buffer of at most %d", c, maxKeptBatch)
	}
}

// TestConcurrentRouteOverCopier: Ingest may call Route from many
// goroutines at once; over a copying transport they all write the same
// kept buffers, which the router's lock must keep whole.
func TestConcurrentRouteOverCopier(t *testing.T) {
	ep := &copyingEndpoint{}
	r := newRouter(t, ep, 8)
	const callers, each = 4, 500
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq := uint64(c*each + i)
				if err := r.Route(tuple.Tuple{Key: seq, Seq: seq, Payload: []byte{byte(seq)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, m := range ep.messages() {
		for _, tu := range decodeData(t, m.msg) {
			if seen[tu.Seq] || tu.Key != tu.Seq || len(tu.Payload) != 1 || tu.Payload[0] != byte(tu.Seq) {
				t.Fatalf("tuple seq %d arrived as key %d payload %v (seen before: %v)", tu.Seq, tu.Key, tu.Payload, seen[tu.Seq])
			}
			seen[tu.Seq] = true
		}
	}
	if len(seen) != callers*each {
		t.Fatalf("%d tuples arrived, routed %d", len(seen), callers*each)
	}
}
