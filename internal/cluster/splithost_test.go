package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// recNet is a network of one node: it records what the node sends, fails
// sends to the nodes in dead, and lets the test play the peers by calling
// the node's handler itself. Everything happens on the test's goroutine.
type recNet struct {
	handle transport.Handler
	sent   []sentMsg
	dead   map[partition.NodeID]bool
}

type sentMsg struct {
	to  partition.NodeID
	msg proto.Message
}

func (n *recNet) Attach(_ partition.NodeID, h transport.Handler) (transport.Endpoint, error) {
	n.handle = h
	return n, nil
}
func (n *recNet) Close() error           { return nil }
func (n *recNet) Node() partition.NodeID { return GeneratorNode }
func (n *recNet) Send(to partition.NodeID, msg proto.Message) error {
	if n.dead[to] {
		return errors.New("unreachable")
	}
	n.sent = append(n.sent, sentMsg{to, msg})
	return nil
}

// fenceHost is a split host over a recNet whose fences give up after
// 50 ms of wall time.
func fenceHost(t *testing.T, dead ...partition.NodeID) (*SplitHost, *recNet) {
	t.Helper()
	net := &recNet{dead: make(map[partition.NodeID]bool)}
	for _, node := range dead {
		net.dead[node] = true
	}
	m, err := (&Config{Engines: []partition.NodeID{"e1", "e2"}, Workload: fastWorkload()}).Map()
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewSplitHost(net, vclock.NewManual(), m)
	if err != nil {
		t.Fatal(err)
	}
	h.quiesceTimeout, h.drainTimeout = 50*time.Millisecond, 50*time.Millisecond
	return h, net
}

// The defect distq.Cluster.Drain had: it counted acks, so e1's ack
// delivered twice ended a fence e2 had not answered.
func TestDrainDuplicatedAckDoesNotStandInForAnotherEngine(t *testing.T) {
	h, net := fenceHost(t)
	// The first fence's token is 1; its acks wait in the host's inbox.
	net.handle("e1", proto.DrainAck{Token: 1, Node: "e1"})
	net.handle("e1", proto.DrainAck{Token: 1, Node: "e1"})
	err := h.Drain([]partition.NodeID{"e1", "e2"})
	if err == nil {
		t.Fatal("fence released with e2 still draining")
	}
	if !strings.Contains(err.Error(), "e2") || strings.Contains(err.Error(), "e1") {
		t.Fatalf("timeout should name e2 alone as pending: %v", err)
	}
	want := []sentMsg{{"e1", proto.Drain{Token: 1}}, {"e2", proto.Drain{Token: 1}}}
	if len(net.sent) != len(want) || net.sent[0] != want[0] || net.sent[1] != want[1] {
		t.Fatalf("sent %v, want %v: the split host drains the engines and nobody else", net.sent, want)
	}
}

func TestDrainIgnoresStaleToken(t *testing.T) {
	h, net := fenceHost(t)
	net.handle("e1", proto.DrainAck{Token: 7, Node: "e1"})
	net.handle("e2", proto.DrainAck{Token: 1, Node: "e2"})
	err := h.Drain([]partition.NodeID{"e1", "e2"})
	if err == nil || !strings.Contains(err.Error(), "e1") || strings.Contains(err.Error(), "e2") {
		t.Fatalf("an ack for another fence's token released e1: %v", err)
	}
	// The next fence (token 2) is answered in full, the late ack of the
	// first one among its acks.
	net.handle("e1", proto.DrainAck{Token: 1, Node: "e1"})
	net.handle("e2", proto.DrainAck{Token: 2, Node: "e2"})
	net.handle("e1", proto.DrainAck{Token: 2, Node: "e1"})
	if err := h.Drain([]partition.NodeID{"e1", "e2"}); err != nil {
		t.Fatal(err)
	}
}

func TestFencesTimeOutNamingWhoIsPending(t *testing.T) {
	h, _ := fenceHost(t)
	if err := h.Quiesce(); err == nil || !strings.Contains(err.Error(), string(CoordinatorNode)) {
		t.Fatalf("quiesce without an ack: %v", err)
	}
	if err := h.Drain([]partition.NodeID{"e2", "e1"}); err == nil || !strings.Contains(err.Error(), "e1, e2") {
		t.Fatalf("drain without acks: %v", err)
	}
}

// An engine the Drain cannot be sent to is skipped and logged; the fence
// is over the ones that can be reached.
func TestDrainSkipsUnreachableEngine(t *testing.T) {
	h, net := fenceHost(t, "e2")
	net.handle("e1", proto.DrainAck{Token: 1, Node: "e1"})
	if err := h.Drain([]partition.NodeID{"e1", "e2"}); err != nil {
		t.Fatal(err)
	}
	if !logged(h.Logger(), "drain_skipped") {
		t.Fatal("the skipped engine was not logged")
	}
}

// The defect distq.handleGenerator had: it dropped HandleControl's error.
func TestRouterControlErrorIsLogged(t *testing.T) {
	h, net := fenceHost(t, "e1")
	// The router cannot send the Pause's marker to its owner.
	net.handle(CoordinatorNode, proto.Pause{Epoch: 1, Owner: "e1", Partitions: []partition.ID{0}})
	if !logged(h.Logger(), "router_control_error") {
		t.Fatal("the router's control error was dropped")
	}
}

func logged(l *obs.Logger, event string) bool {
	for _, e := range l.Recent(0) {
		if e.Event == event {
			return true
		}
	}
	return false
}
