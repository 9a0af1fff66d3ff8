package transport

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
)

// The paced flush is armed per connection by the first coalesced frame
// on a clean connection and disarmed by whatever writes the frames out
// first: dirty holds exactly while a flush is pending. These tests run
// under -race -count=20 in `make chaos-smoke`.

// connTo returns ep's cached connection to node.
func connTo(t *testing.T, ep Endpoint, node partition.NodeID) *tcpConn {
	t.Helper()
	e := ep.(*tcpEndpoint)
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.conns[node]
	if c == nil {
		t.Fatalf("%s holds no connection to %s", e.node, node)
	}
	return c
}

// flushState reports whether c holds coalesced frames and whether a
// flush is pending. Stopping the timer is the probe: it reports whether
// the timer was armed, and a test that sees it armed fails anyway.
func flushState(c *tcpConn) (dirty, pending bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirty, c.flush != nil && c.flush.Stop()
}

// writeData writes one coalescable frame of a size-byte body to c.
func writeData(t *testing.T, c *tcpConn, size int) {
	t.Helper()
	if _, err := c.writeFrame(byte(proto.WireData), size, func(b []byte) []byte {
		return append(b, make([]byte, size)...)
	}); err != nil {
		t.Fatal(err)
	}
}

// A burst of coalesced frames reaches the receiver with no further Send
// and no FlushOutbound, in order, and the flush that sent it leaves the
// connection clean with nothing pending.
func TestPacedFlushDeliversBurst(t *testing.T) {
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
	sink.waitData(t, burst)
	sink.mu.Lock()
	for i := 0; i < burst; i++ {
		if sink.versions[i] != uint64(i) || len(sink.payloads[i]) != 1 || sink.payloads[i][0] != byte(i) {
			t.Fatalf("frame %d arrived as version %d payload %v", i, sink.versions[i], sink.payloads[i])
		}
	}
	sink.mu.Unlock()
	c := connTo(t, a, "b")
	if c.flush == nil {
		t.Fatal("the burst was delivered without arming a flush")
	}
	if dirty, pending := flushState(c); dirty || pending {
		t.Fatalf("after delivery the connection is dirty=%v with a flush pending=%v", dirty, pending)
	}
}

// Control frames go out as they are written: an endpoint that sent
// nothing else never arms a flush.
func TestPacedFlushNotArmedByControlFrames(t *testing.T) {
	n := NewTCP(freshDir())
	defer n.Close()
	sink := newDataSink()
	a := twoNetPair(t, n, n, sink.handle)

	const ticks = 16
	for i := 0; i < ticks; i++ {
		if err := a.Send("b", proto.Tick{Kind: "stats"}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for have := 0; have < ticks; {
		select {
		case <-sink.notify:
			have++
		case <-deadline:
			t.Fatalf("%d of %d ticks arrived", have, ticks)
		}
	}
	c := connTo(t, a, "b")
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty || c.flush != nil {
		t.Fatalf("control frames left the connection dirty=%v, flush armed=%v", c.dirty, c.flush != nil)
	}
}

// A frame that takes the buffer past the watermark writes every frame
// out, so it disarms the flush the first of them armed.
func TestPacedFlushDisarmedByWatermark(t *testing.T) {
	// Each round arms and beats the timer within microseconds of its
	// 1 ms; repeating it keeps one descheduled round from hiding a
	// timer left armed.
	for round := 0; round < 20; round++ {
		c := newDiscardConn()
		writeData(t, c, 8)
		if !c.dirty || c.flush == nil {
			t.Fatal("a coalesced frame below the watermark armed no flush")
		}
		writeData(t, c, coalesceWatermark)
		if dirty, pending := flushState(c); dirty || pending {
			t.Fatalf("round %d: after the watermark flush the connection is dirty=%v with a flush pending=%v", round, dirty, pending)
		}
	}
}

// writeCounter is a net.Conn that swallows and counts writes: each is
// one flush of the tcpConn's writer over it.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes.Add(1)
	return len(b), nil
}

// Frames that keep arriving less than flushInterval apart join the armed
// flush; they do not push it back. A flush re-armed by every frame would
// hold a steady trickle until the watermark, unless the writer stalls
// for flushInterval: each round gives such a flush another chance to be
// caught.
func TestPacedFlushNotPostponedByLaterFrames(t *testing.T) {
	const body, gap = 8, flushInterval / 20
	for round := 0; round < 10; round++ {
		wc := &writeCounter{}
		c := &tcpConn{c: wc, w: bufio.NewWriterSize(wc, connWriterSize)}
		for sent := 0; wc.writes.Load() == 0; sent++ {
			if (sent+1)*(4+1+body) >= coalesceWatermark {
				t.Fatalf("round %d: %d frames written %v apart never flushed before the watermark", round, sent, gap)
			}
			writeData(t, c, body)
			for start := time.Now(); time.Since(start) < gap; {
			}
		}
		c.flushPending()
	}
}

// Closing an endpoint whose connection has a flush armed writes the
// frames out and disarms the flush. With Data senders racing the Close,
// a frame written behind it arms a flush that fails on the closed socket
// and leaves the connection clean; no goroutine is left behind either
// way (the package is leak-checked).
func TestPacedFlushCloseWhileArmed(t *testing.T) {
	netA, netB := NewTCP(freshDir()), NewTCP(freshDir())
	defer netB.Close()
	sink := newDataSink()
	a := twoNetPair(t, netA, netB, sink.handle)
	if err := a.Send("b", proto.Data{Payload: []byte("armed"), MapVersion: 1}); err != nil {
		t.Fatal(err)
	}
	c := connTo(t, a, "b")
	if err := netA.Close(); err != nil {
		t.Fatal(err)
	}
	if dirty, pending := flushState(c); dirty || pending {
		t.Fatalf("after Close the connection is dirty=%v with a flush pending=%v", dirty, pending)
	}
	sink.waitData(t, 1)
	sink.mu.Lock()
	got := string(sink.payloads[0])
	sink.mu.Unlock()
	if got != "armed" {
		t.Fatalf("the frame Close flushed arrived as %q", got)
	}

	netC, netD := NewTCP(freshDir()), NewTCP(freshDir())
	defer netD.Close()
	racing := twoNetPair(t, netC, netD, func(partition.NodeID, proto.Message) {})
	if err := racing.Send("b", proto.Data{MapVersion: 2}); err != nil {
		t.Fatal(err)
	}
	c = connTo(t, racing, "b")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				// Sends fail once the endpoint is closed; the invariant
				// is no race and no flush left armed.
				_ = racing.Send("b", proto.Data{Payload: []byte{byte(j)}, MapVersion: 3})
			}
		}()
	}
	if err := netC.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(flushInterval) {
		c.mu.Lock()
		dirty := c.dirty
		c.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a frame written behind Close left its connection dirty")
		}
	}
}

// Attach starts an endpoint's accept loop and its dispatcher and nothing
// else: no flusher runs beside them.
func TestPacedFlushNoFlusherGoroutine(t *testing.T) {
	const perEndpoint = 2
	// Goroutines of earlier tests may still be winding down, so a count
	// that moved for that reason is taken again.
	grew := 0
	for attempt := 0; attempt < 10; attempt++ {
		n := NewTCP(freshDir())
		before := runtime.NumGoroutine()
		twoNetPair(t, n, n, func(partition.NodeID, proto.Message) {})
		grew = runtime.NumGoroutine() - before
		n.Close()
		if grew == 2*perEndpoint {
			return
		}
	}
	t.Fatalf("attaching two endpoints started %d goroutines, want %d", grew, 2*perEndpoint)
}
