package tracenet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
)

// delivery is what a test handler saw, in handler order.
type delivery struct {
	from    partition.NodeID
	version uint64
}

// TestSendDeliverMatchingIsExact drives several senders, two goroutines
// each, into one receiver over the FIFO in-process transport, and
// checks that every handle span pairs — by (from, to, seq) alone — with
// the send span of the very message the handler was given.
func TestSendDeliverMatchingIsExact(t *testing.T) {
	const perGoroutine = 1500
	senders := []partition.NodeID{"a", "b", "c"}
	rec := NewRecorder()
	net := rec.Wrap(transport.NewInproc())

	var seen []delivery // appended by rx's serial handler only
	if _, err := net.Attach("rx", func(from partition.NodeID, msg proto.Message) {
		seen = append(seen, delivery{from, msg.(proto.Data).MapVersion})
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for si, node := range senders {
		ep, err := net.Attach(node, func(partition.NodeID, proto.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		// A refused send must not take a sequence number.
		if err := ep.Send("nobody", proto.Data{}); err == nil {
			t.Fatal("send to an unattached node succeeded")
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(si, g int) {
				defer wg.Done()
				for i := 0; i < perGoroutine; i++ {
					id := uint64(si)<<40 | uint64(g)<<32 | uint64(i)
					if err := ep.Send("rx", proto.Data{MapVersion: id, Payload: []byte{byte(i)}}); err != nil {
						t.Error(err)
						return
					}
				}
			}(si, g)
		}
	}
	wg.Wait()
	if err := net.Close(); err != nil { // drains rx's queue
		t.Fatal(err)
	}

	spans, msgs := rec.Spans(), rec.Messages()
	type key struct {
		from, to partition.NodeID
		seq      uint64
	}
	sends := make(map[key]*Span)
	for i := range spans {
		s := &spans[i]
		if s.Name != SpanSend || s.Failed {
			continue
		}
		k := key{s.Node, s.Peer, s.Seq}
		if sends[k] != nil {
			t.Fatalf("two sends share the identifier %v", k)
		}
		sends[k] = s
	}
	handled := 0
	for i := range spans {
		h := &spans[i]
		if h.Name != SpanHandle || h.Node != "rx" {
			continue
		}
		s := sends[key{h.Peer, h.Node, h.Seq}]
		if s == nil {
			t.Fatalf("handle span %+v has no send span", h)
		}
		got := seen[handled]
		if got.from != h.Peer {
			t.Fatalf("delivery %d came from %s, its span says %s", handled, got.from, h.Peer)
		}
		if sent := msgs[s.Msg].(proto.Data).MapVersion; sent != got.version {
			t.Fatalf("delivery %d: handler saw message %#x, matched send span carries %#x", handled, got.version, sent)
		}
		if h.Start < s.Start {
			t.Fatalf("delivery %d handled at %d, before it was sent at %d", handled, h.Start, s.Start)
		}
		handled++
	}
	if want := len(senders) * 2 * perGoroutine; handled != want || len(seen) != want {
		t.Fatalf("matched %d of %d deliveries (handler saw %d)", handled, want, len(seen))
	}
}

// TestSelfTimeNeverNegative checks the subtraction on hand-built spans
// (overlapping children, a child running past its parent) and on a
// recorded run whose handlers send from inside.
func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []Span{
		{Name: "parent", Start: 100, End: 200, Parent: -1},
		{Name: "child", Start: 110, End: 150, Parent: 0},
		{Name: "overlapping child", Start: 140, End: 170, Parent: 0},
		{Name: "child past the end", Start: 190, End: 260, Parent: 0},
		{Name: "grandchild", Start: 120, End: 130, Parent: 1},
		{Name: "covering child", Start: 90, End: 300, Parent: 4},
	}
	want := []time.Duration{30, 30, 30, 70, 0, 210}
	for i, got := range SelfTimes(spans) {
		if got != want[i] {
			t.Errorf("%s: self time %d, want %d", spans[i].Name, got, want[i])
		}
	}

	rec := NewRecorder()
	net := rec.Wrap(transport.NewInproc())
	var pong transport.Endpoint
	done := make(chan struct{})
	ping, err := net.Attach("ping", func(_ partition.NodeID, msg proto.Message) {
		if msg.(proto.RemapAck).Epoch == 200 {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	pong, err = net.Attach("pong", func(from partition.NodeID, msg proto.Message) {
		if err := pong.Send(from, proto.RemapAck{Epoch: msg.(proto.Remap).Epoch}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Call("ping", "burst", func() error {
		for i := uint64(1); i <= 200; i++ {
			if err := ping.Send("pong", proto.Remap{Epoch: i}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	recorded := rec.Spans()
	children := 0
	for i, self := range SelfTimes(recorded) {
		s := &recorded[i]
		if self < 0 || self > s.Duration() {
			t.Fatalf("span %d (%s %s): self time %d outside [0, %d]", i, s.Name, s.Kind, self, s.Duration())
		}
		if s.Parent >= 0 {
			children++
			if p := &recorded[s.Parent]; p.Node != s.Node {
				t.Fatalf("span %d on %s has parent on %s", i, s.Node, p.Node)
			}
		}
		if s.Kind == "RemapAck" && s.Name == SpanSend && (s.Parent < 0 || recorded[s.Parent].Kind != "Remap") {
			t.Fatalf("reply sent from inside pong's handler is not its child: %+v", s)
		}
		if s.Kind == "Remap" && s.Epoch == 0 {
			t.Fatalf("control message's epoch not recorded: %+v", s)
		}
	}
	if children < 400 {
		t.Fatalf("only %d child spans; want the 200 sends under the call and the 200 replies under their handlers", children)
	}
}
