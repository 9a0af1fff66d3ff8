package transport

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
)

// Coalesced frames leave within linger, flushed by the next frame or the
// backstop: the first coalesced frame on a clean connection arms the
// backstop, a frame that finds the buffer lingerAged old writes it out
// on the sender's goroutine, and whatever writes the frames out first
// disarms the backstop: dirty holds exactly while a flush is pending.
// These tests run under -race -count=20 in `make chaos-smoke`.

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
	// Each round arms and beats the backstop within microseconds of its
	// linger; repeating it keeps one descheduled round from hiding a
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

// writeLog is a net.Conn that swallows writes and logs when each came
// and how many bytes it carried.
type writeLog struct {
	net.Conn
	mu    sync.Mutex
	at    []time.Time
	bytes []int
}

func (w *writeLog) Write(b []byte) (int, error) {
	w.mu.Lock()
	w.at, w.bytes = append(w.at, time.Now()), append(w.bytes, len(b))
	w.mu.Unlock()
	return len(b), nil
}

func (w *writeLog) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.at)
}

// Frames that keep arriving less than linger apart join the armed flush;
// they do not push it back. A flush re-armed by every frame would hold a
// steady trickle until the watermark, unless the writer stalls for
// linger: each round gives such a flush another chance to be caught.
func TestPacedFlushNotPostponedByLaterFrames(t *testing.T) {
	const body, gap = 8, linger / 20
	for round := 0; round < 10; round++ {
		wl := &writeLog{}
		c := &tcpConn{c: wl, w: bufio.NewWriterSize(wl, connWriterSize)}
		for sent := 0; wl.count() == 0; sent++ {
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
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(linger) {
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

// lingerAttempts bounds the retries of a linger test whose observation
// took linger or longer: the backstop may have fired first, so such an
// attempt shows nothing either way.
const lingerAttempts = 10

// A coalescable frame that finds the buffer lingerAged old writes it
// out, itself included, on the sender's goroutine: the receiver gets
// both frames and the connection is clean with the backstop stopped.
// The buffer's age is set by rewinding since, not by sleeping; the
// state is checked before linger has passed since the backstop was
// armed, so it was stopped, not fired.
func TestLingerAgedFrameFlushesInline(t *testing.T) {
	for attempt := 0; attempt < lingerAttempts; attempt++ {
		if lingerInlineAttempt(t) {
			return
		}
	}
	t.Fatalf("%d attempts each took linger or longer to observe", lingerAttempts)
}

// lingerInlineAttempt runs one attempt of TestLingerAgedFrameFlushesInline
// and reports whether it was conclusive.
func lingerInlineAttempt(t *testing.T) bool {
	n := NewTCP(freshDir())
	defer n.Close()
	sink := newDataSink()
	a := twoNetPair(t, n, n, sink.handle)
	// Dial first: a control frame opens the connection and leaves at once.
	if err := a.Send("b", proto.Tick{Kind: "dial"}); err != nil {
		t.Fatal(err)
	}
	c := connTo(t, a, "b")

	start := time.Now()
	if err := a.Send("b", proto.Data{Payload: []byte("old"), MapVersion: 1}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.since = c.since.Add(-lingerAged)
	c.mu.Unlock()
	if err := a.Send("b", proto.Data{Payload: []byte("new"), MapVersion: 2}); err != nil {
		t.Fatal(err)
	}
	dirty, pending := flushState(c)
	if time.Since(start) >= linger {
		return false
	}
	if dirty || pending {
		t.Fatalf("after the aged frame the connection is dirty=%v with the backstop pending=%v", dirty, pending)
	}
	sink.waitData(t, 2)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if string(sink.payloads[0]) != "old" || string(sink.payloads[1]) != "new" {
		t.Fatalf("the receiver got %q, %q", sink.payloads[0], sink.payloads[1])
	}
	return true
}

// A frame nobody follows reaches the receiver with no further Send and
// no FlushOutbound: the backstop writes it out. A timer never fires
// early, so an arrival after at least linger shows the frame coalesced;
// the upper bound only allows for a loaded scheduler.
func TestLingerLoneFrameLeavesByBackstop(t *testing.T) {
	n := NewTCP(freshDir())
	defer n.Close()
	sink := newDataSink()
	a := twoNetPair(t, n, n, sink.handle)
	if err := a.Send("b", proto.Tick{Kind: "dial"}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.Send("b", proto.Data{Payload: []byte("lone"), MapVersion: 1}); err != nil {
		t.Fatal(err)
	}
	sink.waitData(t, 1)
	if took := time.Since(start); took < linger || took > linger+time.Second {
		t.Fatalf("the lone frame arrived after %v, want linger (%v) plus scheduling", took, linger)
	}
	if dirty, pending := flushState(connTo(t, a, "b")); dirty || pending {
		t.Fatalf("after the backstop the connection is dirty=%v with a flush pending=%v", dirty, pending)
	}
}

// Frames arriving faster than lingerAged never hold the oldest of them
// past linger: the frame that finds the buffer aged writes it out before
// the backstop is due. A flush by the backstop instead holds its oldest
// frame linger or longer, so an attempt whose flushes all came sooner
// shows the rule; one that did not may have lost the sender to the
// scheduler and is repeated.
func TestLingerSteadyStreamFlushesBeforeLinger(t *testing.T) {
	const body, gap, flushes = 8, linger / 20, 3
	var worst time.Duration
	for attempt := 0; attempt < lingerAttempts; attempt++ {
		wl := &writeLog{}
		c := &tcpConn{c: wl, w: bufio.NewWriterSize(wl, connWriterSize)}
		var sent []time.Time
		for wl.count() < flushes {
			if len(sent)*(4+1+body) >= coalesceWatermark {
				t.Fatalf("%d frames written %v apart flushed %d times before the watermark", len(sent), gap, wl.count())
			}
			sent = append(sent, time.Now())
			writeData(t, c, body)
			for start := time.Now(); time.Since(start) < gap; {
			}
		}
		c.flushPending()
		worst = 0
		wl.mu.Lock()
		frames := 0
		for i := 0; i < flushes; i++ {
			worst = max(worst, wl.at[i].Sub(sent[frames]))
			frames += wl.bytes[i] / (4 + 1 + body)
		}
		wl.mu.Unlock()
		if worst < linger {
			return
		}
	}
	t.Fatalf("in each of %d attempts a flush held its oldest frame %v or longer, last %v", lingerAttempts, linger, worst)
}

// Watermark and control frames still flush at once: a control frame
// writes itself and the coalesced frame ahead of it out in one write, as
// does a frame that takes the buffer past the watermark, and each leaves
// the connection clean with the backstop stopped.
func TestLingerWatermarkAndControlFlushAtOnce(t *testing.T) {
	wl := &writeLog{}
	c := &tcpConn{c: wl, w: bufio.NewWriterSize(wl, connWriterSize)}
	writeData(t, c, 8)
	tick := proto.Tick{Kind: "stats"}
	if _, err := c.writeFrame(byte(proto.WireKindOf(tick)), proto.WireSize(tick), func(b []byte) []byte {
		return proto.AppendWire(b, tick)
	}); err != nil {
		t.Fatal(err)
	}
	if w := wl.count(); w != 1 {
		t.Fatalf("a control frame behind a coalesced one made %d writes, want 1", w)
	}
	if dirty, pending := flushState(c); dirty || pending {
		t.Fatalf("after the control frame the connection is dirty=%v with a flush pending=%v", dirty, pending)
	}
	writeData(t, c, 8)
	writeData(t, c, coalesceWatermark)
	if w := wl.count(); w != 2 {
		t.Fatalf("a frame past the watermark left %d writes, want 2", w)
	}
	if dirty, pending := flushState(c); dirty || pending {
		t.Fatalf("after the watermark the connection is dirty=%v with a flush pending=%v", dirty, pending)
	}
}
