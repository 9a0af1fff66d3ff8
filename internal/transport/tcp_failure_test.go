package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
)

// tcpPair attaches a receiver and a sender on a TCP network.
func tcpPair(t *testing.T) (*TCP, Endpoint, *recorder) {
	t.Helper()
	n := NewTCP(map[partition.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	t.Cleanup(func() { n.Close() })
	rec := newRecorder()
	if _, err := n.Attach("b", rec.handle); err != nil {
		t.Fatal(err)
	}
	a, err := n.Attach("a", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	return n, a, rec
}

// rawDial opens a plain TCP connection to node's listener.
func rawDial(t *testing.T, n *TCP, node partition.NodeID) net.Conn {
	t.Helper()
	addr, ok := n.Addr(node)
	if !ok {
		t.Fatalf("node %s not in directory", node)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rawHello dials node, performs the dialer's half of the hello as peer
// "raw", and returns the connection ready for frames.
func rawHello(t *testing.T, n *TCP, node partition.NodeID) net.Conn {
	t.Helper()
	c := rawDial(t, n, node)
	t.Cleanup(func() { c.Close() })
	if _, err := hello(c, "raw"); err != nil {
		t.Fatalf("hello rejected: %v", err)
	}
	return c
}

// helloBytes builds a dialer's hello by hand.
func helloBytes(version byte, id string) []byte {
	b := binary.LittleEndian.AppendUint16(append([]byte(helloMagic), version), uint16(len(id)))
	return append(b, id...)
}

// frame builds one [len][kind][body] frame.
func frame(kind proto.WireKind, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(1+len(body)))
	return append(append(b, byte(kind)), body...)
}

// expectDropped asserts the receiver hangs up on c (observed as EOF).
func expectDropped(t *testing.T, c net.Conn, why string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("%s: receiver kept the connection open (read err: %v)", why, err)
	}
}

// expectHealthy sends one real message and checks the recorder then
// holds exactly want: rejected connections must neither deliver
// anything nor disturb other senders.
func expectHealthy(t *testing.T, a Endpoint, rec *recorder, want int) {
	t.Helper()
	if err := a.Send("b", proto.Hello{Node: "a", Kind: proto.KindEngine}); err != nil {
		t.Fatal(err)
	}
	rec.wait(t, want)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.msgs) != want {
		t.Fatalf("a rejected connection produced a delivery: %d messages, want %d", len(rec.msgs), want)
	}
}

// TestTCPBadHelloDropped: a connection that does not open with a valid
// hello — no hello at all (a bare frame, which is also what a pre-PR-9
// peer would send), another version, an empty node id — is dropped
// before any frame is read.
func TestTCPBadHelloDropped(t *testing.T) {
	n, a, rec := tcpPair(t)
	for name, opening := range map[string][]byte{
		"no hello":      frame(proto.WireData, make([]byte, 16)),
		"wrong version": helloBytes(wireVersion+1, "raw"),
		"empty node id": helloBytes(wireVersion, ""),
	} {
		c := rawDial(t, n, "b")
		if _, err := c.Write(opening); err != nil {
			t.Fatal(err)
		}
		expectDropped(t, c, name)
		c.Close()
	}
	expectHealthy(t, a, rec, 1)
}

// TestTCPBadFrameDropsConnection: after a valid hello, a frame with an
// unknown kind, a body its kind's decoder rejects, a malformed credit
// grant, a zero length or a length beyond the limit makes the receiver
// hang up instead of guessing (or allocating).
func TestTCPBadFrameDropsConnection(t *testing.T) {
	n, a, rec := tcpPair(t)
	msg := proto.Hello{Node: "raw", Kind: proto.KindEngine}
	kind, body := proto.WireKindOf(msg), proto.AppendWire(nil, msg)
	for name, bad := range map[string][]byte{
		"unknown kind":     frame(200, []byte{1, 2, 3}),
		"kind zero":        frame(proto.WireNone, []byte("gob")),
		"retired kind 22":  frame(22, make([]byte, 18)), // what version 2 sent as kind 22: just a trace
		"retired kind 23":  frame(23, make([]byte, 30)),
		"truncated body":   frame(kind, body[:len(body)-1]),
		"trailing byte":    frame(kind, append(body[:len(body):len(body)], 0)),
		"short grant":      frame(proto.WireKind(frameCredit), []byte{1, 2, 3}),
		"zero length":      {0, 0, 0, 0},
		"oversized length": binary.LittleEndian.AppendUint32(nil, maxFrameSize+1),
	} {
		c := rawHello(t, n, "b")
		if _, err := c.Write(bad); err != nil {
			t.Fatal(err)
		}
		expectDropped(t, c, name)
	}
	expectHealthy(t, a, rec, 1)
}

// TestTCPPartialFrameDiscarded writes a whole frame followed by a
// truncated one (the length prefix promises more bytes than ever
// arrive) and closes mid-stream: the whole frame is delivered, the
// partial one is discarded, and other connections keep being served.
func TestTCPPartialFrameDiscarded(t *testing.T) {
	n, a, rec := tcpPair(t)
	c := rawHello(t, n, "b")
	drain := proto.Drain{Token: 7}
	whole := frame(proto.WireKindOf(drain), proto.AppendWire(nil, drain))
	partial := frame(proto.WireData, make([]byte, 100))[:6]
	if _, err := c.Write(append(whole, partial...)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	rec.wait(t, 1)
	expectHealthy(t, a, rec, 2)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.msgs[0] != proto.Message(drain) || rec.from[0] != "raw" {
		t.Fatalf("first delivery = %#v from %q, want the raw peer's Drain", rec.msgs[0], rec.from[0])
	}
}

// TestTCPCreditFrameIsNotAMessageKind pins the one number the transport
// and the proto kind table must never share.
func TestTCPCreditFrameIsNotAMessageKind(t *testing.T) {
	if _, err := proto.DecodeWire(proto.WireKind(frameCredit), make([]byte, 8)); err == nil {
		t.Fatalf("proto registers a message at kind %#x, the transport's credit frame", frameCredit)
	}
}

// TestTCPHelloFailureSaysWhy runs the dialer's hello against peers that
// botch the ack in each distinguishable way; the error (which Send
// wraps) must name it.
func TestTCPHelloFailureSaysWhy(t *testing.T) {
	ack := func(magic string, version byte) []byte {
		return binary.LittleEndian.AppendUint64(append([]byte(magic), version), 1<<20)
	}
	unread := []byte("unread") // hang up before reading the hello
	for _, tc := range []struct {
		name   string
		answer []byte // nil: hang up; empty: stay silent
		want   string
	}{
		{"hang up", nil, "hung up"},
		{"hang up unread", unread, "hung up"},
		{"garbage", ack("XX", wireVersion), "bad magic"},
		{"other version", ack(ackMagic, wireVersion+1), "version mismatch"},
		// A mixed pair: version 2 laid StateTransfer, StateDelta and
		// DeltaAck out differently and still had kinds 22/23.
		{"version 2 peer", ack(ackMagic, 2), "version mismatch"},
		// Version 3 ended every control message and StateDelta's header
		// with an 18-byte-or-longer trace context; only ten messages
		// still carry one.
		{"version 3 peer", ack(ackMagic, 3), "version mismatch"},
		// Version 4's StatsReport lacked Standby, so its reports would
		// misparse.
		{"version 4 peer", ack(ackMagic, 4), "version mismatch"},
		{"silence", []byte{}, "ack timeout"},
	} {
		dialer, peer := net.Pipe()
		go func() {
			if bytes.Equal(tc.answer, unread) {
				peer.Close()
				return
			}
			io.ReadFull(peer, make([]byte, len(helloBytes(wireVersion, "a"))))
			if tc.answer == nil {
				peer.Close()
			} else if len(tc.answer) > 0 {
				peer.Write(tc.answer)
			}
		}()
		_, err := hello(dialer, "a")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: hello error = %v, want it to say %q", tc.name, err, tc.want)
		}
		dialer.Close()
		peer.Close()
	}
}

// TestTCPMidStreamResetRedials breaks the sender's cached connection
// under it; the next Send must fail loudly (no silent loss), and the
// one after that must redial and deliver.
func TestTCPMidStreamResetRedials(t *testing.T) {
	_, a, rec := tcpPair(t)
	hello := proto.Hello{Node: "a", Kind: proto.KindEngine}

	if err := a.Send("b", hello); err != nil {
		t.Fatal(err)
	}
	rec.wait(t, 1)

	// Sever the established connection out from under the sender.
	ep := a.(*tcpEndpoint)
	ep.mu.Lock()
	conn := ep.conns["b"]
	ep.mu.Unlock()
	if conn == nil {
		t.Fatal("no cached connection after a successful send")
	}
	conn.c.Close()

	if err := a.Send("b", hello); err == nil {
		t.Fatal("send over a reset connection reported success")
	}
	if err := a.Send("b", hello); err != nil {
		t.Fatalf("redial after reset failed: %v", err)
	}
	rec.wait(t, 2)
}

// TestTCPReceiverRestartRedial closes the receiving endpoint entirely
// and re-attaches it on a fresh port (the engine crash/restart shape
// over TCP); the sender must converge back to delivering.
func TestTCPReceiverRestartRedial(t *testing.T) {
	n := NewTCP(map[partition.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	defer n.Close()
	rec := newRecorder()
	b, err := n.Attach("b", rec.handle)
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.Attach("a", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	hello := proto.Hello{Node: "a", Kind: proto.KindEngine}
	if err := a.Send("b", hello); err != nil {
		t.Fatal(err)
	}
	rec.wait(t, 1)

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Fresh listener on a fresh ephemeral port, directory updated.
	n.AddNode("b", "127.0.0.1:0")
	if _, err := n.Attach("b", rec.handle); err != nil {
		t.Fatal(err)
	}

	// The sender's cached connection points at the dead incarnation; a
	// frame written into it before the old read loop notices the
	// shutdown is absorbed and dropped, so drive on observed delivery
	// rather than Send success.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_ = a.Send("b", hello) //distqlint:allow uncheckederr: probing a dead conn until the redial lands
		rec.mu.Lock()
		got := len(rec.msgs)
		rec.mu.Unlock()
		if got >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sender never reconnected to the restarted receiver")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
