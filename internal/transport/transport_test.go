package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
)

// networks returns a fresh instance of each Network implementation.
func networks(t *testing.T) map[string]Network {
	t.Helper()
	return map[string]Network{
		"inproc": NewInproc(),
		"tcp": NewTCP(map[partition.NodeID]string{
			"a": "127.0.0.1:0", "b": "127.0.0.1:0", "c": "127.0.0.1:0",
		}),
	}
}

type recorder struct {
	mu   sync.Mutex
	msgs []proto.Message
	from []partition.NodeID
	cond chan struct{}
}

func newRecorder() *recorder {
	return &recorder{cond: make(chan struct{}, 1024)}
}

func (r *recorder) handle(from partition.NodeID, msg proto.Message) {
	r.mu.Lock()
	r.msgs = append(r.msgs, msg)
	r.from = append(r.from, from)
	r.mu.Unlock()
	r.cond <- struct{}{}
}

func (r *recorder) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		r.mu.Lock()
		have := len(r.msgs)
		r.mu.Unlock()
		if have >= n {
			return
		}
		select {
		case <-r.cond:
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages, have %d", n, have)
		}
	}
}

func TestSendReceive(t *testing.T) {
	for name, n := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer n.Close()
			rec := newRecorder()
			if _, err := n.Attach("b", rec.handle); err != nil {
				t.Fatal(err)
			}
			a, err := n.Attach("a", func(partition.NodeID, proto.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			if a.Node() != "a" {
				t.Fatalf("Node() = %s", a.Node())
			}
			if err := a.Send("b", proto.Hello{Node: "a", Kind: proto.KindEngine}); err != nil {
				t.Fatal(err)
			}
			rec.wait(t, 1)
			hello, ok := rec.msgs[0].(proto.Hello)
			if !ok || hello.Node != "a" || rec.from[0] != "a" {
				t.Fatalf("got %T %+v from %s", rec.msgs[0], rec.msgs[0], rec.from[0])
			}
		})
	}
}

func TestFIFOPerPair(t *testing.T) {
	for name, n := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer n.Close()
			rec := newRecorder()
			if _, err := n.Attach("b", rec.handle); err != nil {
				t.Fatal(err)
			}
			a, err := n.Attach("a", func(partition.NodeID, proto.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			const count = 500
			for i := 0; i < count; i++ {
				if err := a.Send("b", proto.ResultCount{Node: "a", Delta: uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			rec.wait(t, count)
			for i := 0; i < count; i++ {
				rc := rec.msgs[i].(proto.ResultCount)
				if rc.Delta != uint64(i) {
					t.Fatalf("message %d has delta %d: FIFO violated", i, rc.Delta)
				}
			}
		})
	}
}

func TestSerialHandler(t *testing.T) {
	for name, n := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer n.Close()
			var (
				mu      sync.Mutex
				active  int
				overlap bool
				total   int
			)
			done := make(chan struct{}, 1024)
			handler := func(partition.NodeID, proto.Message) {
				mu.Lock()
				active++
				if active > 1 {
					overlap = true
				}
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
				mu.Lock()
				active--
				total++
				mu.Unlock()
				done <- struct{}{}
			}
			if _, err := n.Attach("c", handler); err != nil {
				t.Fatal(err)
			}
			a, _ := n.Attach("a", func(partition.NodeID, proto.Message) {})
			b, _ := n.Attach("b", func(partition.NodeID, proto.Message) {})
			for i := 0; i < 20; i++ {
				if err := a.Send("c", proto.Stop{}); err != nil {
					t.Fatal(err)
				}
				if err := b.Send("c", proto.Stop{}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 40; i++ {
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("timed out")
				}
			}
			if overlap {
				t.Fatal("handler invocations overlapped")
			}
		})
	}
}

func TestSendToUnknownNode(t *testing.T) {
	for name, n := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer n.Close()
			a, err := n.Attach("a", func(partition.NodeID, proto.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send("nope", proto.Stop{}); err == nil {
				t.Fatal("send to unknown node succeeded")
			}
		})
	}
}

func TestDuplicateAttach(t *testing.T) {
	n := NewInproc()
	defer n.Close()
	if _, err := n.Attach("a", func(partition.NodeID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("a", func(partition.NodeID, proto.Message) {}); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestAttachValidation(t *testing.T) {
	n := NewInproc()
	defer n.Close()
	if _, err := n.Attach("", func(partition.NodeID, proto.Message) {}); err == nil {
		t.Fatal("empty node id accepted")
	}
	if _, err := n.Attach("x", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestLargePayload(t *testing.T) {
	for name, n := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer n.Close()
			rec := newRecorder()
			if _, err := n.Attach("b", rec.handle); err != nil {
				t.Fatal(err)
			}
			a, _ := n.Attach("a", func(partition.NodeID, proto.Message) {})
			payload := make([]byte, 4<<20)
			for i := range payload {
				payload[i] = byte(i)
			}
			if err := a.Send("b", proto.Data{Payload: payload, MapVersion: 7}); err != nil {
				t.Fatal(err)
			}
			rec.wait(t, 1)
			d := rec.msgs[0].(proto.Data)
			if len(d.Payload) != len(payload) || d.MapVersion != 7 {
				t.Fatalf("payload %d bytes, version %d", len(d.Payload), d.MapVersion)
			}
			for i := 0; i < len(payload); i += 100_000 {
				if d.Payload[i] != byte(i) {
					t.Fatalf("payload corrupted at %d", i)
				}
			}
		})
	}
}

func TestManySendersToOneReceiver(t *testing.T) {
	for name, n := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer n.Close()
			rec := newRecorder()
			if _, err := n.Attach("a", rec.handle); err != nil {
				t.Fatal(err)
			}
			const senders, per = 2, 200
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				node := partition.NodeID(fmt.Sprintf("s%d", s))
				var ep Endpoint
				var err error
				switch tn := n.(type) {
				case *TCP:
					tn.AddNode(node, "127.0.0.1:0")
					ep, err = n.Attach(node, func(partition.NodeID, proto.Message) {})
				default:
					ep, err = n.Attach(node, func(partition.NodeID, proto.Message) {})
				}
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := ep.Send("a", proto.ResultCount{Node: ep.Node(), Delta: uint64(i)}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			rec.wait(t, senders*per)
			// Per-sender FIFO: deltas from each sender arrive in order.
			next := map[partition.NodeID]uint64{}
			for i, m := range rec.msgs {
				rc := m.(proto.ResultCount)
				if rc.Delta != next[rc.Node] {
					t.Fatalf("message %d from %s has delta %d, want %d", i, rc.Node, rc.Delta, next[rc.Node])
				}
				next[rc.Node]++
			}
		})
	}
}

func TestCloseEndpointStopsDelivery(t *testing.T) {
	n := NewInproc()
	defer n.Close()
	rec := newRecorder()
	b, err := n.Attach("b", rec.handle)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := n.Attach("a", func(partition.NodeID, proto.Message) {})
	b.Close()
	if err := a.Send("b", proto.Stop{}); err == nil {
		t.Fatal("send to closed endpoint succeeded")
	}
}

// TestClosedEndpointRefusesToSend: once an endpoint is closed its Send
// fails and nothing arrives under its name. A marker from a third node
// sent after the refused send must be the only message b gets.
func TestClosedEndpointRefusesToSend(t *testing.T) {
	for name, n := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer n.Close()
			rec := newRecorder()
			if _, err := n.Attach("b", rec.handle); err != nil {
				t.Fatal(err)
			}
			a, err := n.Attach("a", func(partition.NodeID, proto.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			c, err := n.Attach("c", func(partition.NodeID, proto.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.Send("b", proto.Tick{}); err == nil {
				t.Fatal("a closed endpoint's send succeeded")
			}
			if err := c.Send("b", proto.Stop{}); err != nil {
				t.Fatal(err)
			}
			rec.wait(t, 1)
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if len(rec.msgs) != 1 || rec.from[0] != "c" {
				t.Fatalf("b received %v from %v, want only c's marker", rec.msgs, rec.from)
			}
		})
	}
}

func TestNetworkCloseIdempotent(t *testing.T) {
	for name, n := range networks(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := n.Attach("a", func(partition.NodeID, proto.Message) {}); err != nil {
				t.Fatal(err)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Attach("z", func(partition.NodeID, proto.Message) {}); err == nil {
				t.Fatal("attach after close succeeded")
			}
		})
	}
}

func TestTCPStateTransferMessage(t *testing.T) {
	n := NewTCP(map[partition.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	defer n.Close()
	rec := newRecorder()
	if _, err := n.Attach("b", rec.handle); err != nil {
		t.Fatal(err)
	}
	a, _ := n.Attach("a", func(partition.NodeID, proto.Message) {})
	msg := proto.StateTransfer{
		Epoch:  3,
		Images: [][]byte{{1, 2, 3}, {4, 5}, {6}},
	}
	if err := a.Send("b", msg); err != nil {
		t.Fatal(err)
	}
	rec.wait(t, 1)
	got := rec.msgs[0].(proto.StateTransfer)
	if got.Epoch != 3 || len(got.Images) != 3 {
		t.Fatalf("got %+v", got)
	}
}
