package coordinator

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// The synchronous rig: the test calls Coordinator.Handle itself, reads
// what the coordinator sent from an outbox, and moves a manual clock.
// Nothing runs concurrently: armed deadlines fire inside the test's own
// Advance, and their self-addressed RelocTimeouts land in a channel the
// test drains — so every scenario replays deterministically, tick for
// tick.

// sent is one message the coordinator sent to a peer.
type sent struct {
	to  partition.NodeID
	msg proto.Message
}

// syncClock records every timer the coordinator arms.
type syncClock struct {
	*vclock.Manual
	armed []time.Duration
}

func (c *syncClock) AfterFunc(d time.Duration, f func()) {
	c.armed = append(c.armed, d)
	c.Manual.AfterFunc(d, f)
}

type syncRig struct {
	t       *testing.T
	coord   *Coordinator
	clock   *syncClock
	pmap    *partition.Map
	engines []partition.NodeID
	// out is everything sent to peers, in order (ReplicaMap broadcasts
	// excepted: they ride every tick and no scenario reads them).
	out []sent
	// self receives the coordinator's self-addressed timers.
	self        chan proto.Message
	lastVersion uint64
}

// Attach makes the rig the coordinator's network: its one endpoint.
func (g *syncRig) Attach(partition.NodeID, transport.Handler) (transport.Endpoint, error) {
	return g, nil
}
func (g *syncRig) Close() error           { return nil }
func (g *syncRig) Node() partition.NodeID { return "gc" }
func (g *syncRig) Send(to partition.NodeID, m proto.Message) error {
	if to == "gc" {
		g.self <- m // only the coordinator's timers send here
		return nil
	}
	if _, ok := m.(proto.ReplicaMap); !ok {
		g.out = append(g.out, sent{to, m})
	}
	return nil
}

const (
	rigTimeout   = 30 * time.Second
	rigHeartbeat = 60 * time.Second
)

// newSyncRig builds a coordinator over n engines m1..mn (8 partitions,
// round-robin) with deadlines and the watchdog armed; tune adjusts the
// configuration first.
func newSyncRig(t *testing.T, n int, strategy core.Strategy, replicate bool, tune ...func(*Config)) *syncRig {
	t.Helper()
	g := &syncRig{t: t, clock: &syncClock{Manual: vclock.NewManual()}, self: make(chan proto.Message, 1024)}
	for i := 1; i <= n; i++ {
		g.engines = append(g.engines, partition.NodeID(fmt.Sprintf("m%d", i)))
	}
	var err error
	if g.pmap, err = partition.NewMap(8, partition.UniformAssign(g.engines)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Node: "gc", SplitHost: "gen", Engines: g.engines, Strategy: strategy, Map: g.pmap,
		LBInterval: time.Hour, RelocTimeout: rigTimeout, HeartbeatTimeout: rigHeartbeat, Replicate: replicate,
	}
	for _, f := range tune {
		f(&cfg)
	}
	if g.coord, err = New(cfg, g.clock); err != nil {
		t.Fatal(err)
	}
	if err := g.coord.Attach(g); err != nil {
		t.Fatal(err)
	}
	return g
}

// handle delivers one message and checks the map invariants every event
// must preserve: each partition has one owner, a known engine, and the
// version never goes back.
func (g *syncRig) handle(from partition.NodeID, m proto.Message) {
	g.t.Helper()
	g.coord.Handle(from, m)
	for id := 0; id < g.pmap.N(); id++ {
		owner, err := g.pmap.Owner(partition.ID(id))
		if err != nil || !slices.Contains(g.engines, owner) {
			g.t.Fatalf("after %T: partition %d owned by %q (%v)", m, id, owner, err)
		}
	}
	v := g.pmap.Version()
	if v < g.lastVersion {
		g.t.Fatalf("after %T: map version went back from %d to %d", m, g.lastVersion, v)
	}
	g.lastVersion = v
}

func (g *syncRig) report(node partition.NodeID, mem int64, output uint64) {
	g.t.Helper()
	g.handle(node, proto.StatsReport{Node: node, MemBytes: mem, Groups: 4, Output: output})
}

// tick advances the clock and delivers one lb tick. It comes from
// another node, as a harness drives one, so it arms no lb_timer chain.
func (g *syncRig) tick(advance time.Duration) {
	g.t.Helper()
	g.clock.Advance(advance)
	g.handle("gen", proto.Tick{Kind: proto.TickLB})
}

// last is the most recent message sent to a peer.
func (g *syncRig) last() sent {
	g.t.Helper()
	if len(g.out) == 0 {
		g.t.Fatal("nothing sent")
	}
	return g.out[len(g.out)-1]
}

// lastOf is the most recent message of type T sent to a peer.
func lastOf[T proto.Message](g *syncRig) (T, partition.NodeID) {
	g.t.Helper()
	for i := len(g.out) - 1; i >= 0; i-- {
		if m, ok := g.out[i].msg.(T); ok {
			return m, g.out[i].to
		}
	}
	var zero T
	g.t.Fatalf("no %T sent", zero)
	return zero, ""
}

// reply is the ack a healthy peer gives s, and the node that gives it.
func (g *syncRig) reply(s sent) (partition.NodeID, proto.Message) {
	g.t.Helper()
	switch m := s.msg.(type) {
	case proto.CptV:
		return s.to, proto.PtV{Epoch: m.Epoch, Node: s.to, Partitions: g.pmap.OwnedBy(s.to)[:2]}
	case proto.Pause: // the split host's marker comes back from the owner
		return m.Owner, proto.MarkerAck{Epoch: m.Epoch, Node: m.Owner}
	case proto.SendStates: // the shipped state's ack comes from the receiver
		return m.Receiver, proto.Installed{Epoch: m.Epoch, Node: m.Receiver}
	case proto.Remap:
		return "gen", proto.RemapAck{Epoch: m.Epoch}
	case proto.ForceSpill:
		return s.to, proto.SpillDone{Node: s.to, Bytes: m.Amount, Seq: m.Seq}
	case proto.RelocAbort:
		return s.to, proto.RelocAbortAck{Epoch: m.Epoch, Node: s.to}
	case proto.Promote:
		return s.to, proto.PromoteAck{Epoch: m.Epoch, Node: s.to, Installed: true}
	case proto.Demote:
		return s.to, proto.DemoteAck{Epoch: m.Epoch, Node: s.to}
	}
	g.t.Fatalf("no reply known for %T", s.msg)
	return "", nil
}

// answer delivers the healthy reply to the last message sent.
func (g *syncRig) answer() {
	g.t.Helper()
	g.handle(g.reply(g.last()))
}

// mark is what an ignored message must leave untouched.
type mark struct {
	sent, runs                           int
	retries, aborted, unresolved, errors int
	cursor                               string
}

// unresolved reads the coordinator's unresolved-adaptation counter.
func (g *syncRig) unresolved() int { return int(g.coord.mUnresolved.Value()) }

func (g *syncRig) mark() mark {
	m := mark{sent: len(g.out), runs: len(g.coord.runs), retries: int(g.coord.mRetries.Value()),
		aborted: int(g.coord.mAborted.Value()), unresolved: g.unresolved(), errors: int(g.coord.mErrors.Value())}
	var cursors []string
	for id, r := range g.coord.runs {
		cursors = append(cursors, fmt.Sprintf("%d:%s/%s#%d", id, r.plan.name, r.step().name, r.attempts))
	}
	sort.Strings(cursors)
	m.cursor = strings.Join(cursors, " ")
	return m
}

// expire lets the pending step's deadline pass: it advances the clock by
// d and delivers self-addressed timers until one takes effect (timers of
// steps acked since are stale and change nothing).
func (g *syncRig) expire(d time.Duration) {
	g.t.Helper()
	before := g.mark()
	g.clock.Advance(d)
	for g.mark() == before {
		select {
		case m := <-g.self:
			g.handle("gc", m)
		case <-time.After(5 * time.Second):
			g.t.Fatalf("no deadline fired within %s of virtual time", d)
		}
	}
}

// withField returns m (a struct value) with the named field set, or
// false when m has no such field.
func withField(m proto.Message, name string, value any) (proto.Message, bool) {
	v := reflect.New(reflect.TypeOf(m)).Elem()
	v.Set(reflect.ValueOf(m))
	f := v.FieldByName(name)
	if !f.IsValid() {
		return m, false
	}
	f.Set(reflect.ValueOf(value).Convert(f.Type()))
	return v.Interface().(proto.Message), true
}

// field reads a named field of a message struct.
func field(m proto.Message, name string) any {
	return reflect.ValueOf(m).FieldByName(name).Interface()
}
