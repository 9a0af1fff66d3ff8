package transport

import (
	"bufio"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
)

// discardConn is a net.Conn that swallows every write: a tcpConn over it
// measures the encode side of writeFrame alone.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

func newDiscardConn() *tcpConn {
	return &tcpConn{c: discardConn{}, w: bufio.NewWriterSize(discardConn{}, connWriterSize)}
}

// bulkMessages are a StateDelta and a StateTransfer of a few MiB each,
// the shapes of a re-seed after a promotion and of a relocation.
func bulkMessages() []proto.Message {
	rng := rand.New(rand.NewSource(7))
	blob := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	return []proto.Message{
		proto.StateDelta{From: "a", Incarnation: 3, Seq: 9, Entries: []proto.DeltaEntry{
			{Group: 4, Kind: proto.DeltaSeed, Payload: blob(3 << 20)},
			{Group: 5, Kind: proto.DeltaAppend, Payload: blob(70_001)},
			{Group: 6, Kind: proto.DeltaSeed, Payload: blob(4<<20 + 13)},
		}},
		proto.StateTransfer{Epoch: 12, Images: [][]byte{blob(2<<20 + 1), blob(1 << 20), blob(4 << 20)},
			Trace: obs.TraceContext{TraceID: 5, SpanID: 8, Node: "gc"}},
	}
}

// encodedBytes writes a frame of a size-byte body runs times, each from
// no scratch (as after a frame beyond encScratchMax), and reports the
// bytes allocated per frame. Bytes, unlike an allocation count, stay
// exact when another goroutine of the test binary allocates meanwhile.
func encodedBytes(t *testing.T, kind byte, size int, body func([]byte) []byte) float64 {
	t.Helper()
	const runs = 10
	c := newDiscardConn()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c.enc = nil
		n, err := c.writeFrame(kind, size, body)
		if err != nil {
			t.Fatal(err)
		}
		if n != 4+1+size {
			t.Fatalf("wrote a %d-byte frame, want %d", n, 4+1+size)
		}
	}
	runtime.ReadMemStats(&after)
	if size+5 > encScratchMax && c.enc != nil {
		t.Errorf("a %d-byte scratch buffer outlives a frame beyond encScratchMax", cap(c.enc))
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// A frame too large for the connection's writer is encoded into one
// buffer of exactly its size, however large: no regrowth from a short
// scratch buffer, which allocates several times the frame.
func TestLargeFrameEncodesIntoOneBuffer(t *testing.T) {
	for _, msg := range bulkMessages() {
		size := proto.WireSize(msg)
		if size < 2<<20 || size > 8<<20 {
			t.Fatalf("%T encodes to %d bytes, want a multi-MiB frame", msg, size)
		}
		got := encodedBytes(t, byte(proto.WireKindOf(msg)), size, func(b []byte) []byte { return proto.AppendWire(b, msg) })
		if frame := float64(4 + 1 + size); got < frame || got > 1.05*frame {
			t.Errorf("%T: %.0f bytes allocated per %.0f-byte frame, want one buffer of its size", msg, got, frame)
		}
	}
}

// The largest frame the writer holds still goes straight into its
// buffer, allocating nothing; one byte more takes the scratch path.
func TestWriterSizedFrameTakesDirectPath(t *testing.T) {
	body := make([]byte, connWriterSize)
	for _, size := range []int{connWriterSize - 5, connWriterSize - 4} {
		got := encodedBytes(t, byte(proto.WireData), size, func(b []byte) []byte { return append(b, body[:size]...) })
		if direct := size+5 <= connWriterSize; direct && got > 1024 || !direct && got < float64(size) {
			t.Errorf("a %d-byte body: %.0f bytes allocated per frame, direct path %v", size, got, direct)
		}
	}
}

// Multi-MiB StateDelta and StateTransfer frames arrive over TCP exactly
// as they were sent.
func TestTCPLargeFramesArriveIntact(t *testing.T) {
	n := NewTCP(freshDir())
	defer n.Close()
	sink := newDataSink()
	a := twoNetPair(t, n, n, sink.handle)
	msgs := bulkMessages()
	for _, msg := range msgs {
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		sink.mu.Lock()
		have := len(sink.others)
		sink.mu.Unlock()
		if have >= len(msgs) {
			break
		}
		select {
		case <-sink.notify:
		case <-deadline:
			t.Fatal("timed out waiting for the large frames")
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, msg := range msgs {
		if !reflect.DeepEqual(sink.others[i], msg) {
			t.Errorf("%T of %d bytes arrived changed", msg, proto.WireSize(msg))
		}
	}
}
