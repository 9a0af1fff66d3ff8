package distq

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
)

// slowResults is TCP with slow engine→application-server links: every
// message an engine sends the application server is held for linkDelay
// of wall time, in order, before it goes out; every other link —
// gen→app among them — is untouched. That is all PROTOCOL.md "Transport
// guarantees" allows a fence to assume (FIFO per pair, no order between
// pairs), stretched until it shows: a fence that reaches the application
// server on another link than the results overtakes them.
type slowResults struct {
	*transport.TCP
	done chan struct{} // closed by Close: the forwarders stop
}

const linkDelay = 20 * time.Millisecond

func (n slowResults) Attach(node partition.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.TCP.Attach(node, h)
	switch node {
	case cluster.CoordinatorNode, cluster.GeneratorNode, cluster.AppServerNode:
		return ep, err
	}
	if err != nil {
		return nil, err
	}
	slow := &slowEndpoint{Endpoint: ep, held: make(chan heldMsg, 1024), done: n.done}
	go slow.forward()
	return slow, nil
}

func (n slowResults) Close() error {
	close(n.done)
	return n.TCP.Close()
}

type heldMsg struct {
	msg proto.Message
	due time.Time
}

type slowEndpoint struct {
	transport.Endpoint
	// held is the link: 1024 messages in flight before Send blocks, far
	// more than the results of the test's input make.
	held chan heldMsg
	done chan struct{}
}

func (e *slowEndpoint) Send(to partition.NodeID, msg proto.Message) error {
	if to != cluster.AppServerNode {
		return e.Endpoint.Send(to, msg)
	}
	select {
	case e.held <- heldMsg{msg, time.Now().Add(linkDelay)}:
	case <-e.done:
	}
	return nil
}

func (e *slowEndpoint) forward() {
	for {
		select {
		case m := <-e.held:
			time.Sleep(time.Until(m.due))
			e.Endpoint.Send(cluster.AppServerNode, m.msg)
		case <-e.done:
			return
		}
	}
}

// Benchmark finding 6: when Drain returns, every run-time result has
// been delivered to OnResult — also when the results' links are slower
// than the fence's.
func TestDrainFencesResultsOverSlowLinks(t *testing.T) {
	// The join runs as one shard, on the handler goroutine.
	t.Run("shards=1", func(t *testing.T) {
		net := slowResults{transport.NewTCP(map[NodeID]string{
			cluster.CoordinatorNode: "127.0.0.1:0",
			cluster.GeneratorNode:   "127.0.0.1:0",
			cluster.AppServerNode:   "127.0.0.1:0",
			"m1":                    "127.0.0.1:0",
			"m2":                    "127.0.0.1:0",
		}), make(chan struct{})}
		defer net.Close()
		var mu sync.Mutex
		set := tuple.NewResultSet()
		dups := 0
		c, err := NewCluster(Options{
			Engines:    []NodeID{"m1", "m2"},
			Inputs:     2,
			Partitions: 8,
			Network:    net,
			OnResult: func(_ Phase, r Result) {
				mu.Lock()
				defer mu.Unlock()
				if !set.Add(r) {
					dups++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(1))
		var history []tuple.Tuple
		seqs := make([]uint64, 2)
		for i := 0; i < 4000; i++ {
			stream, key := i%2, uint64(rng.Intn(500))
			history = append(history, tuple.Tuple{Stream: uint8(stream), Key: key, Seq: seqs[stream]})
			seqs[stream]++
			if err := c.Ingest(stream, key, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		fenced := set.Len()
		mu.Unlock()
		if want := join.OracleCount(2, history); uint64(fenced) != want {
			t.Errorf("%d results delivered when Drain returned, oracle %d", fenced, want)
		}
		time.Sleep(5 * linkDelay)
		mu.Lock()
		defer mu.Unlock()
		if set.Len() != fenced {
			t.Errorf("%d results arrived after Drain returned", set.Len()-fenced)
		}
		if dups != 0 {
			t.Errorf("%d duplicate results", dups)
		}
	})
}
