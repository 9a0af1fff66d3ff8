package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
)

// maxFrameSize rejects absurd frames before allocating for them (a state
// transfer of an entire engine fits comfortably below this).
const maxFrameSize = 1 << 30

// Wire format (PROTOCOL.md "Wire format"). A dialing endpoint opens
// every connection with a hello — helloMagic, wireVersion, its node id —
// and the receiver answers with an ack — ackMagic, wireVersion, its
// data-path credit window. Anything else is an error and the connection
// is dropped. Frames follow: [len u32][kind u8][body].
const (
	helloMagic = "DQW\xF1"
	ackMagic   = "\xD9Q"
	// wireVersion must match on both sides. Version 1 was the PR-9
	// negotiated format that still carried gob; version 2 shipped group
	// state as separate resident/segment lists and deltas without an
	// incarnation; version 3 carried a trace context on every control
	// message and on StateDelta; version 4's StatsReport had no Standby;
	// version 5's carried spill count, spilled bytes and disk segments,
	// which the engine's metrics report instead.
	wireVersion = 6
	// helloAckSize is the ack: magic(2) version(1) creditWindow(8).
	helloAckSize = 2 + 1 + 8
	// maxNodeIDLen bounds the node id a hello may carry.
	maxNodeIDLen = 256
	// frameCredit tags the transport's own credit-grant frame; every
	// other kind byte is a proto.WireKind.
	frameCredit byte = 0x7F

	// defaultCreditWindow is the per-(sender,receiver) byte window
	// advertised at hello. ~256 default-sized tuple batches may be in
	// flight before a sender blocks.
	defaultCreditWindow = 4 << 20
	// defaultCreditTimeout bounds how long a data-path Send blocks
	// waiting for credit before reporting the receiver unreachable
	// (the split router then parks the batch exactly as it does for a
	// dead connection).
	defaultCreditTimeout = 15 * time.Second
	// handshakeTimeout bounds the dialer's wait for the hello ack.
	handshakeTimeout = 3 * time.Second
	// coalesceWatermark flushes a connection once this many coalesced
	// bytes are buffered, bounding data-path latency under load.
	coalesceWatermark = 32 << 10
	// linger bounds how long a coalesced frame waits below the
	// watermark: within 5 ms it is flushed by the next frame or the
	// backstop. A coalescable frame that finds the buffer lingerAged
	// old writes it out, itself included, on the sender's goroutine, so
	// a steady stream never fires a timer; the one-shot backstop armed
	// by the first buffered frame flushes a frame nobody follows.
	linger = 5 * time.Millisecond
	// lingerAged is the buffer age at which a following frame flushes.
	// It stays short of linger so that a sender whose period divides
	// linger is not raced by the backstop.
	lingerAged = linger * 4 / 5
	// connWriterSize is each connection's bufio.Writer capacity — the
	// coalescing buffer itself.
	connWriterSize = 1 << 16
	// encScratchMax caps the encode scratch a connection keeps between
	// frames. A frame too large for the writer is encoded into a buffer
	// of exactly its size, allocated once; one beyond encScratchMax (a
	// multi-megabyte state transfer or re-seed) drops that buffer after
	// its write instead of pinning its peak.
	encScratchMax = 1 << 20
)

// TCP is a Network whose nodes listen on real TCP sockets. A static
// directory maps node IDs to addresses (the experiment binaries pass
// localhost ports). Outgoing connections are established lazily and
// cached; each (sender, receiver) pair uses one connection, giving FIFO
// delivery per pair. Each receiving node dispatches inbound frames from
// all connections through a single queue, so its handler runs serially.
//
// Every connection opens with one hello and then carries tagged frames
// [len][kind][body] in the proto wire codec, with credit-based
// backpressure on the data path (see PROTOCOL.md "Wire format").
type TCP struct {
	mu            sync.RWMutex
	directory     map[partition.NodeID]string
	metrics       map[partition.NodeID]*Metrics
	endpoints     []*tcpEndpoint
	closed        bool
	creditWindow  int64
	creditTimeout time.Duration
}

// NewTCP returns a TCP network with the given node directory.
func NewTCP(directory map[partition.NodeID]string) *TCP {
	dir := make(map[partition.NodeID]string, len(directory))
	for k, v := range directory {
		dir[k] = v
	}
	return &TCP{
		directory:     dir,
		metrics:       make(map[partition.NodeID]*Metrics),
		creditWindow:  defaultCreditWindow,
		creditTimeout: defaultCreditTimeout,
	}
}

// SetCreditWindow overrides the advertised data-path credit window in
// bytes (0 disables credit). Call before Attach.
func (n *TCP) SetCreditWindow(bytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.creditWindow = bytes
}

// SetCreditTimeout overrides how long a data-path Send may block
// waiting for credit. Call before Attach.
func (n *TCP) SetCreditTimeout(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.creditTimeout = d
}

func (n *TCP) creditWindowOf() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.creditWindow
}

func (n *TCP) creditTimeoutOf() time.Duration {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.creditTimeout
}

// Instrument implements Instrumentable: future Attach(node, ...) records
// transport metrics for node into m.
func (n *TCP) Instrument(node partition.NodeID, m *Metrics) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics[node] = m
}

// AddNode extends the directory (e.g. after binding an ephemeral port).
func (n *TCP) AddNode(node partition.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.directory[node] = addr
}

// Addr reports the directory address of node.
func (n *TCP) Addr(node partition.NodeID) (string, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	a, ok := n.directory[node]
	return a, ok
}

// senderCredit is one destination's data-path byte window on the
// sending side: consumed before each Data/ResultData frame, refilled
// by the receiver's credit-grant frames.
type senderCredit struct {
	mu    sync.Mutex
	avail int64
	// wake (capacity 1) is poked on every grant so blocked consumers
	// recheck; consume re-pokes it when credit remains, cascading the
	// wakeup to other waiters.
	wake chan struct{}
}

func newSenderCredit(window int64) *senderCredit {
	return &senderCredit{avail: window, wake: make(chan struct{}, 1)}
}

func (s *senderCredit) grant(n int64) {
	s.mu.Lock()
	s.avail += n
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// consume blocks until the window has room for n more bytes (one frame
// may overdraw the window, so a frame larger than the whole window
// still makes progress). onBlock fires once, when the caller first has
// to wait — before the wait, so the blocked state is observable while
// it lasts. stop aborts the wait when the endpoint closes.
func (s *senderCredit) consume(n int64, timeout time.Duration, stop <-chan struct{}, onBlock func()) error {
	// The deadline is read only once the caller has to wait: a frame
	// that finds credit pays no clock read.
	var deadline time.Time
	blocked := false
	s.mu.Lock()
	for s.avail <= 0 {
		s.mu.Unlock()
		if !blocked {
			blocked = true
			deadline = time.Now().Add(timeout)
			if onBlock != nil {
				onBlock()
			}
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return errors.New("credit window exhausted: receiver granted nothing within the timeout")
		}
		t := time.NewTimer(remain)
		select {
		case <-s.wake:
			t.Stop()
		case <-t.C:
			return errors.New("credit window exhausted: receiver granted nothing within the timeout")
		case <-stop:
			t.Stop()
			return errors.New("endpoint closed")
		}
		s.mu.Lock()
	}
	s.avail -= n
	if s.avail > 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
	return nil
}

// recvCredit is one inbound peer's grant bookkeeping on the receiving
// side: bytes consumed by the handler since the last grant.
type recvCredit struct {
	window   int64
	consumed int64
}

type tcpEndpoint struct {
	net      *TCP
	node     partition.NodeID
	listener net.Listener
	queue    chan envelope
	done     chan struct{}
	// stop is closed on Close: it wakes credit waiters so no Send
	// blocks across shutdown.
	stop     chan struct{}
	stopOnce sync.Once
	metrics  *Metrics

	// enqMu guards queue against close-during-enqueue: reader goroutines
	// hold the read lock while enqueueing, Close takes the write lock to
	// flip down before closing the channel.
	enqMu sync.RWMutex

	mu    sync.Mutex
	conns map[partition.NodeID]*tcpConn
	down  bool

	// recvMu guards the receiving-side grant bookkeeping, keyed by the
	// peer named in the connection's hello.
	recvMu sync.Mutex
	recv   map[partition.NodeID]*recvCredit
}

type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
	w  *bufio.Writer
	// credit is the destination's data-path window (nil when the peer
	// advertised none: credit disabled).
	credit *senderCredit
	// dirty marks coalesced frames awaiting a flush, within linger: by
	// the next frame or the backstop. since is when the buffer turned
	// dirty, and flush is the backstop, armed exactly while dirty
	// (created by the first coalesced frame, nil on a connection that
	// never buffered one).
	dirty bool
	since time.Time
	flush *time.Timer
	// enc is the encode scratch of frames too large for w's buffer (state
	// transfers, seeds), allocated at a frame's exact size when it is too
	// small, reused under mu and dropped after a frame beyond
	// encScratchMax. Every other frame is encoded in w's buffer itself.
	enc []byte
}

// Attach implements Network. The node must be present in the directory;
// an address of ":0" binds an ephemeral port that is written back to the
// directory.
func (n *TCP) Attach(node partition.NodeID, h Handler) (Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %s", node)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: network closed")
	}
	addr, ok := n.directory[node]
	metrics := n.metrics[node]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: node %s not in directory", node)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n.AddNode(node, l.Addr().String())
	ep := &tcpEndpoint{
		net:      n,
		node:     node,
		listener: l,
		queue:    make(chan envelope, inprocQueueDepth),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		conns:    make(map[partition.NodeID]*tcpConn),
		recv:     make(map[partition.NodeID]*recvCredit),
		metrics:  metrics,
	}
	n.mu.Lock()
	n.endpoints = append(n.endpoints, ep)
	n.mu.Unlock()
	go ep.acceptLoop()
	go func() {
		for env := range ep.queue {
			ep.metrics.receivedKind(env.kind, env.msg, env.size)
			h(env.from, env.msg)
			// The handler has returned, so its slab copies are done and
			// the frame buffer's lifecycle ends here (PROTOCOL.md buffer
			// ownership); consumed data-path bytes turn into grants.
			if env.buf != nil {
				releaseReadBuf(env.buf)
			}
			if env.credited {
				ep.noteConsumed(env.from, env.size)
			}
		}
		close(ep.done)
	}()
	return ep, nil
}

// Close implements Network.
func (n *TCP) Close() error {
	n.mu.Lock()
	eps := append([]*tcpEndpoint(nil), n.endpoints...)
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go e.readLoop(c)
	}
}

// readLoop serves one inbound connection: the hello, then tagged
// frames [len u32][kind u8][body] where len covers kind and body. Any
// malformed hello or frame drops the connection; the sender's next
// write observes the reset and redials.
func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer c.Close()
	r := bufio.NewReaderSize(c, 1<<16)
	peer, err := e.acceptHello(c, r)
	if err != nil {
		return
	}
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(lenBuf[:])
		if size == 0 || size > maxFrameSize {
			return
		}
		bp, body := takeReadBuf(int(size))
		if _, err := io.ReadFull(r, body); err != nil {
			releaseReadBuf(bp)
			return
		}
		kind, payload := body[0], body[1:]
		if kind == frameCredit && len(payload) == 8 {
			e.applyGrant(peer, int64(binary.LittleEndian.Uint64(payload)))
			releaseReadBuf(bp)
			continue
		}
		// frameCredit is not a message kind, so a malformed grant fails
		// here like any other unknown or corrupt frame.
		msg, err := proto.DecodeWire(proto.WireKind(kind), payload)
		if err != nil {
			releaseReadBuf(bp)
			return
		}
		env := envelope{from: peer, msg: msg, size: 4 + int(size), kind: proto.WireKind(kind), credited: creditEligible(proto.WireKind(kind))}
		if proto.WireKind(kind).AliasesBody() {
			// The message's payload slices alias the frame buffer; the
			// dispatcher recycles it after the handler returns.
			env.buf = bp
		} else {
			releaseReadBuf(bp)
		}
		if !e.deliver(env) {
			releaseReadBuf(env.buf)
			return
		}
	}
}

// acceptHello reads a dialer's hello — magic(4) version(1) idlen(2) id —
// and answers with the ack: magic(2) version(1) creditWindow(8). The
// receiver never writes on this connection again, so no lock is needed.
func (e *tcpEndpoint) acceptHello(c net.Conn, r *bufio.Reader) (partition.NodeID, error) {
	var hdr [7]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", fmt.Errorf("hello: %w", err)
	}
	if string(hdr[:4]) != helloMagic {
		return "", errors.New("hello: bad magic")
	}
	if hdr[4] != wireVersion {
		return "", fmt.Errorf("hello: version mismatch: peer speaks %d, this node %d", hdr[4], wireVersion)
	}
	idLen := int(binary.LittleEndian.Uint16(hdr[5:]))
	if idLen == 0 || idLen > maxNodeIDLen {
		return "", fmt.Errorf("hello: node id length %d", idLen)
	}
	id := make([]byte, idLen)
	if _, err := io.ReadFull(r, id); err != nil {
		return "", fmt.Errorf("hello: %w", err)
	}
	peer := partition.NodeID(id)

	window := max(e.net.creditWindowOf(), 0)
	ack := binary.LittleEndian.AppendUint64(append([]byte(ackMagic), wireVersion), uint64(window))
	if _, err := c.Write(ack); err != nil {
		return "", fmt.Errorf("hello: ack: %w", err)
	}
	if window > 0 {
		// Register (or refresh, after a redial) the peer's grant
		// bookkeeping. Entries persist for the endpoint's lifetime —
		// a stale one for a vanished peer simply never accrues.
		e.recvMu.Lock()
		e.recv[peer] = &recvCredit{window: window}
		e.recvMu.Unlock()
	}
	return peer, nil
}

// deliver enqueues one inbound envelope unless the endpoint is closing,
// reporting whether it was accepted.
func (e *tcpEndpoint) deliver(env envelope) bool {
	e.enqMu.RLock()
	e.mu.Lock()
	down := e.down
	e.mu.Unlock()
	if down {
		e.enqMu.RUnlock()
		return false
	}
	e.queue <- env
	e.enqMu.RUnlock()
	return true
}

// applyGrant credits a destination's window with bytes granted by the
// peer and records the grant.
func (e *tcpEndpoint) applyGrant(from partition.NodeID, n int64) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	c := e.conns[from]
	e.mu.Unlock()
	if c == nil || c.credit == nil {
		// The granted connection was dropped (redial resets the window
		// from the fresh ack), or never consumed credit.
		return
	}
	c.credit.grant(n)
	e.metrics.creditGranted(from, n)
}

// noteConsumed runs on the dispatcher after the handler finished one
// credited data-path frame: once half the advertised window has been
// consumed, the freed bytes are granted back to the sender.
func (e *tcpEndpoint) noteConsumed(from partition.NodeID, frameBytes int) {
	e.recvMu.Lock()
	rc := e.recv[from]
	var grant int64
	if rc != nil {
		rc.consumed += int64(frameBytes)
		if rc.consumed >= rc.window/2 {
			grant = rc.consumed
			rc.consumed = 0
		}
	}
	e.recvMu.Unlock()
	if grant == 0 {
		return
	}
	// If the sender is unreachable or the write fails, its connection —
	// and the debt the grant would have repaid — died with it, so the
	// grant is moot (the next Send observes the sticky write error).
	if conn, err := e.conn(from); err == nil {
		_, _ = conn.writeFrame(frameCredit, 8, func(b []byte) []byte {
			return binary.LittleEndian.AppendUint64(b, uint64(grant))
		})
	}
}

// readBufSizes are the inbound frame buffer size classes. Batches and
// result flushes live in the first two; snapshots and deltas in the
// larger ones. Frames beyond the last class are allocated fresh.
var readBufSizes = [...]int{4 << 10, 64 << 10, 1 << 20, 16 << 20}

// readBufClasses recycles inbound frame bodies, one sync.Pool per size
// class. Ownership protocol (PROTOCOL.md "Wire format"): the read loop
// takes a buffer, the dispatcher hands the decoded message to the
// handler (whose slab copy ends the payload's lifecycle), and the
// dispatcher releases the buffer after the handler returns. Nothing
// may retain the buffer past that point.
var readBufClasses [len(readBufSizes)]sync.Pool

func init() {
	for i := range readBufClasses {
		size := readBufSizes[i]
		readBufClasses[i].New = func() any {
			b := make([]byte, size)
			return &b
		}
	}
}

// takeReadBuf returns a recycled buffer handle and its n-byte view.
// A nil handle means the size exceeded every class and the view is a
// one-off allocation.
func takeReadBuf(n int) (*[]byte, []byte) {
	for i, size := range readBufSizes {
		if n <= size {
			bp := readBufClasses[i].Get().(*[]byte)
			return bp, (*bp)[:n]
		}
	}
	b := make([]byte, n)
	return nil, b
}

// releaseReadBuf recycles a buffer taken with takeReadBuf.
func releaseReadBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	c := cap(*bp)
	for i, size := range readBufSizes {
		if c == size {
			readBufClasses[i].Put(bp)
			return
		}
	}
}

// Node implements Endpoint.
func (e *tcpEndpoint) Node() partition.NodeID { return e.node }

// creditEligible reports whether a native kind consumes window bytes:
// only the unbounded-volume payloads (tuple batches, result batches).
// Relocation transfers and replication deltas are protocol-paced and
// excluded, so backpressure can never deadlock an adaptation step.
func creditEligible(kind proto.WireKind) bool {
	return kind == proto.WireData || kind == proto.WireResultData
}

// coalesces reports whether a kind may wait in the connection's write
// buffer for the watermark or, within linger (5 ms), the next frame or
// the backstop: only the steady-flow payloads are worth trading latency
// for syscalls. Everything else — control messages, state transfers
// (which gate relocation steps) — flushes immediately.
func coalesces(kind proto.WireKind) bool {
	return kind == proto.WireData || kind == proto.WireResultData || kind == proto.WireStateDelta
}

// Send implements Endpoint.
func (e *tcpEndpoint) Send(to partition.NodeID, msg proto.Message) error {
	var start time.Time
	if e.metrics != nil {
		start = time.Now()
	}
	kind := proto.WireKindOf(msg)
	if kind == proto.WireNone {
		return fmt.Errorf("transport: send to %s: %T is not a registered wire message", to, msg)
	}
	conn, err := e.conn(to)
	if err != nil {
		return err
	}
	size := proto.WireSize(msg)
	if conn.credit != nil && creditEligible(kind) {
		// Charge exactly the framed size the receiver will count.
		err := conn.credit.consume(int64(4+1+size), e.net.creditTimeoutOf(), e.stop,
			func() { e.metrics.creditBlocked(to) })
		if err != nil {
			return fmt.Errorf("transport: send to %s: %w", to, err)
		}
	}
	frameBytes, err := conn.writeFrame(byte(kind), size, func(b []byte) []byte {
		return proto.AppendWire(b, msg)
	})
	if err != nil {
		// Drop the broken connection so a retry can redial.
		e.mu.Lock()
		if e.conns[to] == conn {
			delete(e.conns, to)
		}
		e.mu.Unlock()
		conn.flushPending() // disarms; a broken writer writes nothing
		conn.c.Close()
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	if e.metrics != nil {
		e.metrics.sentKind(kind, msg, frameBytes, time.Since(start))
	}
	return nil
}

// writeFrame writes one [len u32][kind u8][body] frame, body appending
// exactly size bytes, and reports its wire size. The frame is encoded
// straight into the bufio writer's free space (making room by flushing
// what is buffered, which preserves order); only a frame larger than the
// whole buffer is built in enc first. Coalescable frames wait in the
// writer until the watermark, a coalescable frame that finds the buffer
// lingerAged old, or the backstop at linger; everything else flushes
// immediately, pushing any coalesced frames ahead of it so
// per-connection FIFO order is preserved. size is known before the body
// is encoded, so enc grows, when it must, once and to the frame's size:
// appending a multi-megabyte body to a short buffer regrows it a
// quarter at a time.
func (c *tcpConn) writeFrame(kind byte, size int, body func([]byte) []byte) (int, error) {
	if size+1 > maxFrameSize {
		return 0, fmt.Errorf("frame of %d bytes exceeds limit", size+1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	frame := 4 + 1 + size
	direct := frame <= c.w.Size()
	b := c.enc[:0]
	switch {
	case direct:
		if frame > c.w.Available() {
			if err := c.w.Flush(); err != nil {
				return 0, err
			}
		}
		b = c.w.AvailableBuffer()
	case cap(b) < frame:
		b = make([]byte, 0, frame)
	}
	b = body(append(binary.LittleEndian.AppendUint32(b, uint32(size+1)), kind))
	if !direct {
		c.enc = b
		if cap(c.enc) > encScratchMax {
			c.enc = nil
		}
	}
	// For a frame built in AvailableBuffer this Write only advances the
	// writer: source and destination are the same bytes.
	if _, err := c.w.Write(b); err != nil {
		return 0, err
	}
	if coalesces(proto.WireKind(kind)) && c.w.Buffered() < coalesceWatermark {
		if !c.dirty {
			c.dirty, c.since = true, time.Now()
			if c.flush == nil {
				c.flush = time.AfterFunc(linger, c.flushPending)
			} else {
				c.flush.Reset(linger)
			}
			return len(b), nil
		}
		if time.Since(c.since) < lingerAged {
			return len(b), nil
		}
	}
	c.clean()
	return len(b), c.w.Flush()
}

// clean clears dirty and disarms its flush; the caller holds c.mu and
// writes out, or gives up, what was buffered.
func (c *tcpConn) clean() {
	if c.dirty {
		c.dirty = false
		c.flush.Stop()
	}
}

// flushPending writes out coalesced frames if any are still buffered.
// It is the armed flush's callback, and FlushOutbound, Close and Send's
// drop path call it too; a callback beaten to the frames finds the
// connection clean. A flush error is sticky in the bufio.Writer; the
// next Send observes it and drops the connection for redial.
func (c *tcpConn) flushPending() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty {
		c.clean()
		_ = c.w.Flush()
	}
}

// FlushOutbound pushes every coalesced frame to the wire before
// returning. Fence points (an engine acknowledging a Drain) call it so
// "acked" implies "prior data-path frames are on the wire", even
// across different destination connections.
func (e *tcpEndpoint) FlushOutbound() {
	e.mu.Lock()
	conns := make([]*tcpConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	for _, c := range conns {
		c.flushPending()
	}
}

// CopiesPayload implements PayloadCopier: Send encodes each frame before returning.
func (e *tcpEndpoint) CopiesPayload() {}

func (e *tcpEndpoint) conn(to partition.NodeID) (*tcpConn, error) {
	e.mu.Lock()
	if e.down {
		e.mu.Unlock()
		return nil, errors.New("transport: endpoint closed")
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	addr, ok := e.net.Addr(to)
	if !ok {
		return nil, fmt.Errorf("transport: unknown node %s", to)
	}
	c, err := e.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.down {
		c.c.Close()
		return nil, errors.New("transport: endpoint closed")
	}
	if existing, ok := e.conns[to]; ok {
		c.c.Close() // lost the race; reuse the winner
		return existing, nil
	}
	e.conns[to] = c
	return c, nil
}

// dial opens one connection and performs the hello. A failed hello says
// why: the peer hung up, answered something that is not an ack, speaks
// another version, or never answered.
func (e *tcpEndpoint) dial(addr string) (*tcpConn, error) {
	id := string(e.node)
	if len(id) == 0 || len(id) > maxNodeIDLen {
		return nil, fmt.Errorf("hello: node id %q must be 1..%d bytes", id, maxNodeIDLen)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	credit, err := hello(raw, id)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return &tcpConn{c: raw, w: bufio.NewWriterSize(raw, connWriterSize), credit: credit}, nil
}

// hello sends the dialer's hello on raw and reads the ack, returning
// the peer's advertised credit window (nil when it advertises none).
func hello(raw net.Conn, id string) (*senderCredit, error) {
	pre := binary.LittleEndian.AppendUint16(append([]byte(helloMagic), wireVersion), uint16(len(id)))
	pre = append(pre, id...)
	if _, err := raw.Write(pre); err != nil {
		if errors.Is(err, io.ErrClosedPipe) || errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) {
			return nil, fmt.Errorf("hello: peer hung up before the ack: %w", err)
		}
		return nil, fmt.Errorf("hello: %w", err)
	}
	if err := raw.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	var ack [helloAckSize]byte
	if _, err := io.ReadFull(raw, ack[:]); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, fmt.Errorf("hello: ack timeout after %v", handshakeTimeout)
		}
		return nil, fmt.Errorf("hello: peer hung up before the ack: %w", err)
	}
	if string(ack[:2]) != ackMagic {
		return nil, fmt.Errorf("hello: bad magic in ack % x", ack[:2])
	}
	if ack[2] != wireVersion {
		return nil, fmt.Errorf("hello: version mismatch: peer speaks %d, this node %d", ack[2], wireVersion)
	}
	// The ack was the last thing this side ever reads on raw, so the
	// deadline is left to lapse. The window travels as the int64 that
	// SetCreditWindow takes: no value is truncated in transit.
	if window := int64(binary.LittleEndian.Uint64(ack[3:])); window > 0 {
		return newSenderCredit(window), nil
	}
	return nil, nil
}

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.down {
		e.mu.Unlock()
		return nil
	}
	e.down = true
	conns := e.conns // no longer reachable, so read unlocked below
	e.conns = map[partition.NodeID]*tcpConn{}
	e.mu.Unlock()

	// Wake blocked credit waiters first, then push out any coalesced
	// frames, best effort, before tearing the sockets down.
	e.stopOnce.Do(func() { close(e.stop) })
	e.listener.Close()
	for _, c := range conns {
		c.flushPending()
		c.c.Close()
	}
	// Block new enqueues (readers observe down under enqMu), then close.
	// The dispatcher drains what is already queued — releasing frame
	// buffers as usual — before signalling done.
	e.enqMu.Lock()
	e.enqMu.Unlock()
	close(e.queue)
	<-e.done
	return nil
}
