package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// snap builds an encodable group snapshot with the given per-input
// tuple lists.
func snap(g partition.ID, gen uint32, lists ...[]tuple.Tuple) *join.GroupSnapshot {
	s := &join.GroupSnapshot{ID: g, Gen: gen, Inputs: make([][]byte, len(lists))}
	for i, l := range lists {
		s.Inputs[i] = (&tuple.Batch{Tuples: l}).Encode()
	}
	return s
}

// appendPayload tuple-encodes ts the way the primary's data-path hook
// does.
func appendPayload(ts ...tuple.Tuple) []byte {
	var buf []byte
	for i := range ts {
		buf = ts[i].AppendTo(buf)
	}
	return buf
}

// seedPayload encodes a group image the way the primary's seed does.
func seedPayload(mem *join.GroupSnapshot, disk ...*join.GroupSnapshot) []byte {
	return spill.AppendImage(nil, &spill.Image{Mem: mem, Disk: disk})
}

func markPayload(gen uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], gen)
	return b[:]
}

// expectNoPromoteAck fences the engine with a stats tick from the
// coordinator (same-sender FIFO) and fails if a PromoteAck arrives
// before the report: a failed promotion must never be acknowledged.
func expectNoPromoteAck(t *testing.T, r *rig) {
	t.Helper()
	if err := r.gc.ep.Send("m1", proto.Tick{Kind: proto.TickStats}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-r.gc.msgs:
			switch m.msg.(type) {
			case proto.PromoteAck:
				t.Fatal("PromoteAck sent for a promotion whose standby merge failed")
			case proto.StatsReport:
				return
			}
		case <-deadline:
			t.Fatal("timed out waiting for the stats-tick fence")
		}
	}
}

// sumStandby recomputes the memory-tier byte counter from scratch: every
// tuple of every standby's tier with its encoded tail folded in.
func sumStandby(t *testing.T, r *replicator) int64 {
	t.Helper()
	var n int64
	var tp tuple.Tuple
	for _, sb := range r.standby {
		im := sb.Image()
		for i := range im.Inputs {
			for rd := im.Input(i); rd.Next(&tp); {
				n += tp.MemSize()
			}
		}
	}
	return n
}

// TestPromoteRetryKeepsStandbyAfterFailedMerge is the regression test
// for the retried-Promote data loss: the standby must be deleted only
// after its merge succeeds, so a Promote retry finds the warm copy
// still there instead of acking an install that never happened.
func TestPromoteRetryKeepsStandbyAfterFailedMerge(t *testing.T) {
	r := newRig(t, nil)
	m2 := newPeer(t, r.net, "m2")

	// A seed whose snapshot has three inputs cannot merge into the
	// two-input operator: op.Merge fails after the standby is built.
	bad := snap(1, 0, []tuple.Tuple{mk(0, 1, 1)}, nil, nil)
	if err := m2.ep.Send("m1", proto.StateDelta{From: "m2", Seq: 1,
		Entries: []proto.DeltaEntry{{Group: 1, Kind: proto.DeltaSeed, Payload: seedPayload(bad)}}}); err != nil {
		t.Fatal(err)
	}
	if ack := expect[proto.DeltaAck](t, m2); ack.Seq != 1 {
		t.Fatalf("seed ack seq = %d", ack.Seq)
	}
	bytesBefore := r.engine.repl.standbyBytes
	if bytesBefore == 0 {
		t.Fatal("seed installed no standby bytes")
	}

	promote := proto.Promote{Epoch: 7, From: "m2", Groups: []partition.ID{1}}
	for attempt := 0; attempt < 2; attempt++ {
		if err := r.gc.ep.Send("m1", promote); err != nil {
			t.Fatal(err)
		}
		expectNoPromoteAck(t, r)
		if r.engine.repl.standby[1] == nil {
			t.Fatalf("attempt %d: standby deleted although its merge failed", attempt)
		}
		if got := r.engine.repl.standbyBytes; got != bytesBefore {
			t.Fatalf("attempt %d: standbyBytes = %d, want %d", attempt, got, bytesBefore)
		}
		if r.engine.Op().Groups() != 0 {
			t.Fatalf("attempt %d: failed merge left resident state behind", attempt)
		}
	}

	// The primary re-seeds with a well-formed snapshot; the retried
	// Promote now installs it.
	good := snap(1, 0, []tuple.Tuple{mk(0, 1, 1)}, nil)
	if err := m2.ep.Send("m1", proto.StateDelta{From: "m2", Seq: 2,
		Entries: []proto.DeltaEntry{{Group: 1, Kind: proto.DeltaSeed, Payload: seedPayload(good)}}}); err != nil {
		t.Fatal(err)
	}
	if ack := expect[proto.DeltaAck](t, m2); ack.Seq != 2 {
		t.Fatalf("re-seed ack seq = %d", ack.Seq)
	}
	if err := r.gc.ep.Send("m1", promote); err != nil {
		t.Fatal(err)
	}
	ack := expect[proto.PromoteAck](t, r.gc)
	if ack.Epoch != 7 || !ack.Installed {
		t.Fatalf("PromoteAck = %+v", ack)
	}
	r.drain(t)
	if r.engine.repl.standby[1] != nil || r.engine.repl.standbyBytes != 0 {
		t.Fatalf("standby not consumed by the successful promote (bytes=%d)", r.engine.repl.standbyBytes)
	}
	// The installed copy is live resident state: a probe joins it.
	r.gen.ep.Send("m1", dataMsg(t, mk(1, 1, 9)))
	r.drain(t)
	if got := r.engine.Op().Output(); got != 1 {
		t.Fatalf("output = %d: promoted standby does not join", got)
	}
}

// TestStandbyBytesCountTowardLocalSpill verifies the follower's local
// overflow check charges the memory-tier standby: a standby-heavy
// follower must spill its own resident state even when that state alone
// sits under the threshold, and its stats report the combined figure.
func TestStandbyBytesCountTowardLocalSpill(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.LocalSpill = true
		c.Spill = core.SpillConfig{MemThreshold: 2048, Fraction: 0.5}
	})
	m2 := newPeer(t, r.net, "m2")

	// A little resident state of the engine's own, well under threshold.
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(0, 2, 2)))

	// A heavy standby copy streamed from the primary.
	heavy := make([]tuple.Tuple, 40)
	for i := range heavy {
		heavy[i] = tuple.Tuple{Stream: 0, Key: 3, Seq: uint64(i), Payload: make([]byte, 64)}
	}
	if err := m2.ep.Send("m1", proto.StateDelta{From: "m2", Seq: 1,
		Entries: []proto.DeltaEntry{{Group: 3, Kind: proto.DeltaAppend, Payload: appendPayload(heavy...)}}}); err != nil {
		t.Fatal(err)
	}
	expect[proto.DeltaAck](t, m2)

	own := r.engine.Op().MemBytes()
	standby := r.engine.repl.standbyBytes
	if own >= 2048 {
		t.Fatalf("resident state %d bytes crosses the threshold alone; test proves nothing", own)
	}
	if own+standby <= 2048 {
		t.Fatalf("combined load %d bytes under threshold; standby too small", own+standby)
	}

	// The stats report charges both tiers of memory.
	r.gc.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
	report := expect[proto.StatsReport](t, r.gc)
	if report.MemBytes != own+standby {
		t.Fatalf("report.MemBytes = %d, want own %d + standby %d", report.MemBytes, own, standby)
	}

	// The spill tick fires although the engine's own state is tiny.
	r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickSpill})
	r.drain(t)
	if spills(r.engine) == 0 {
		t.Fatal("standby-heavy follower did not spill locally")
	}
	if r.store.SegmentCount() == 0 {
		t.Fatal("no segments persisted by the standby-pressure spill")
	}
}

// TestReplicationLagCountsSpilledBytes verifies an unseeded group is
// charged for its disk segments, not just its resident size: until the
// seed ships, the follower holds neither tier, and a settled fence that
// ignored the segments would declare safety while the spilled fraction
// is still unreplicated.
func TestReplicationLagCountsSpilledBytes(t *testing.T) {
	store := spill.NewMemStore()
	e := mustNew(t, Config{
		Node: "m1", Coordinator: "gc", AppServer: "app",
		Inputs: 2, Partitions: 4, Store: store,
		StatsInterval: time.Hour, SpillCheckInterval: time.Hour,
	}, vclock.NewManual())

	for gen := uint32(0); gen < 2; gen++ {
		if err := store.Write(snap(1, gen, []tuple.Tuple{mk(0, 1, uint64(gen))}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.repl.applyMap(proto.ReplicaMap{Version: 1, Entries: []proto.ReplicaEntry{
		{Group: 1, Primary: "m1", Follower: "m2"},
		{Group: 2, Primary: "m1", Follower: "m2"},
	}}); err != nil {
		t.Fatal(err)
	}

	sizeOf := func(partition.ID) int64 { return 777 }
	lag := e.repl.lag(sizeOf)
	spilled := store.BytesOf(1)
	if spilled == 0 {
		t.Fatal("segment store reports zero bytes for a written group")
	}
	if got := lag[1]; got != 777+spilled {
		t.Fatalf("lag of spilled group = %d, want resident 777 + spilled %d", got, spilled)
	}
	if got := lag[2]; got != 777 {
		t.Fatalf("lag of memory-only group = %d, want 777", got)
	}
}

// TestSeedCarriesSegmentsAndPromoteAdoptsThem walks the tiered-standby
// life cycle on the follower: a seed with segments lands in the local
// standby store, a spill marker demotes the memory tier at the
// primary's generation boundary, and promotion merges the memory tier
// and adopts every segment into the engine's own store exactly once.
func TestSeedCarriesSegmentsAndPromoteAdoptsThem(t *testing.T) {
	sbStore := spill.NewMemStore()
	r := newRig(t, func(c *Config) { c.StandbyStore = sbStore })
	m2 := newPeer(t, r.net, "m2")
	g := partition.ID(2)

	// Seed: memory tier at generation 2, segments for generations 0,1.
	if err := m2.ep.Send("m1", proto.StateDelta{From: "m2", Seq: 1, Entries: []proto.DeltaEntry{
		{Group: g, Kind: proto.DeltaSeed, Payload: seedPayload(
			snap(g, 2, []tuple.Tuple{mk(0, 2, 3)}, nil),
			snap(g, 0, []tuple.Tuple{mk(0, 2, 1)}, nil),
			snap(g, 1, []tuple.Tuple{mk(0, 2, 2)}, nil))},
	}}); err != nil {
		t.Fatal(err)
	}
	expect[proto.DeltaAck](t, m2)
	if got := sbStore.SegmentCount(); got != 2 {
		t.Fatalf("standby segments after seed = %d, want 2", got)
	}
	if r.engine.repl.standbyBytes == 0 {
		t.Fatal("seed installed no memory tier")
	}

	// An append, then the primary spills generation 2: the marker
	// demotes the whole memory tier into a local segment at gen 2.
	m2.ep.Send("m1", proto.StateDelta{From: "m2", Seq: 2, Entries: []proto.DeltaEntry{
		{Group: g, Kind: proto.DeltaAppend, Payload: appendPayload(mk(1, 2, 4))},
	}})
	expect[proto.DeltaAck](t, m2)
	m2.ep.Send("m1", proto.StateDelta{From: "m2", Seq: 3, Entries: []proto.DeltaEntry{
		{Group: g, Kind: proto.DeltaSpillMark, Payload: markPayload(2)},
	}})
	expect[proto.DeltaAck](t, m2)
	if got := sbStore.SegmentCount(); got != 3 {
		t.Fatalf("standby segments after marker = %d, want 3", got)
	}
	if got := r.engine.repl.standbyBytes; got != 0 {
		t.Fatalf("memory tier holds %d bytes after full demotion", got)
	}
	if sb := r.engine.repl.standby[g]; sb == nil || sb.Mem.Gen != 3 {
		t.Fatalf("fresh memory tier = %+v, want generation 3", sb)
	}

	// Post-spill appends accumulate at the new generation.
	m2.ep.Send("m1", proto.StateDelta{From: "m2", Seq: 4, Entries: []proto.DeltaEntry{
		{Group: g, Kind: proto.DeltaAppend, Payload: appendPayload(mk(1, 2, 5))},
	}})
	expect[proto.DeltaAck](t, m2)

	// Promotion: memory tier merges at generation 3, segments 0..2 are
	// adopted into the engine's own store in generation order.
	r.gc.ep.Send("m1", proto.Promote{Epoch: 3, From: "m2", Groups: []partition.ID{g}})
	if ack := expect[proto.PromoteAck](t, r.gc); !ack.Installed {
		t.Fatalf("PromoteAck = %+v", ack)
	}
	r.drain(t)
	res := r.engine.Op().ResidentSnapshot(g)
	if res == nil || res.Gen != 3 {
		t.Fatalf("resident snapshot = %+v, want generation 3 (the primary's post-spill boundary)", res)
	}
	segs, err := r.store.Read(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("adopted %d segments, want 3", len(segs))
	}
	for i, seg := range segs {
		if seg.Gen != uint32(i) {
			t.Fatalf("adopted segment %d has generation %d: boundaries off the primary's", i, seg.Gen)
		}
	}
	if sbStore.SegmentCount() != 0 {
		t.Fatal("standby store not cleared after adoption")
	}

	// A later promotion epoch re-runs adoption; it must not duplicate.
	r.gc.ep.Send("m1", proto.Promote{Epoch: 4, From: "m2", Groups: []partition.ID{g}})
	expect[proto.PromoteAck](t, r.gc)
	r.drain(t)
	if got := r.store.SegmentCount(); got != 3 {
		t.Fatalf("segments after repeated promote = %d, want 3 (adoption must be idempotent)", got)
	}
}

// TestFollowerDeltaStreamProperty drives onDelta with a seeded random
// mix of in-order deltas, duplicates, gaps, seed replacements, spill
// markers, malformed payloads, restarts of the primary (a newer
// incarnation numbering from 1 again) and stragglers from its earlier
// lives, checking after every step that the byte counter matches the
// standby copies exactly (their memory tiers plus the tuples their
// encoded tails hold), the applied sequence only advances on
// well-formed in-order deltas of the primary's current life, duplicates
// and gaps are answered with the sequence the follower stands at, and
// stragglers get no answer at all.
func TestFollowerDeltaStreamProperty(t *testing.T) {
	sbStore := spill.NewMemStore()
	r := newRig(t, func(c *Config) { c.StandbyStore = sbStore })
	m2 := newPeer(t, r.net, "m2")
	rng := rand.New(rand.NewSource(42))

	var (
		life    uint64 = 10 // the primary's current incarnation
		seq     uint64      // last in-order sequence the engine accepted in it
		lastGen = map[partition.ID]uint32{}
		sent    []proto.StateDelta // well-formed deltas of this life, for duplicates
	)
	send := func(d proto.StateDelta) {
		t.Helper()
		if err := m2.ep.Send("m1", d); err != nil {
			t.Fatal(err)
		}
	}
	expectAck := func(why string) {
		t.Helper()
		ack := expect[proto.DeltaAck](t, m2)
		if ack.Seq != seq || ack.Incarnation != r.engine.repl.incarnation {
			t.Fatalf("%s: ack = %+v, want seq %d of follower life %d", why, ack, seq, r.engine.repl.incarnation)
		}
	}
	wellFormed := func(entries ...proto.DeltaEntry) {
		t.Helper()
		d := proto.StateDelta{From: "m2", Incarnation: life, Seq: seq + 1, Entries: entries}
		send(d)
		seq++
		sent = append(sent, d)
		expectAck("in-order delta")
	}
	appendEntry := func(g partition.ID, i int) proto.DeltaEntry {
		return proto.DeltaEntry{Group: g, Kind: proto.DeltaAppend, Payload: appendPayload(mk(0, uint64(g), uint64(i)))}
	}

	for i := 0; i < 200; i++ {
		g := partition.ID(rng.Intn(4))
		switch op := rng.Intn(12); {
		case op < 4: // append
			n := 1 + rng.Intn(3)
			ts := make([]tuple.Tuple, n)
			for j := range ts {
				ts[j] = tuple.Tuple{Stream: uint8(rng.Intn(2)), Key: uint64(g), Seq: uint64(i*10 + j),
					Payload: make([]byte, 1+rng.Intn(32))}
			}
			wellFormed(proto.DeltaEntry{Group: g, Kind: proto.DeltaAppend, Payload: appendPayload(ts...)})
		case op < 6: // seed replacement: the whole image, replacing both standby tiers
			segs := make([]*join.GroupSnapshot, rng.Intn(3))
			for j := range segs {
				segs[j] = snap(g, uint32(j), []tuple.Tuple{mk(0, uint64(g), uint64(i))}, nil)
			}
			gen := uint32(len(segs))
			lastGen[g] = gen
			mem := snap(g, gen, []tuple.Tuple{mk(0, uint64(g), uint64(i))}, nil)
			wellFormed(proto.DeltaEntry{Group: g, Kind: proto.DeltaSeed, Payload: seedPayload(mem, segs...)})
			want := int64(0)
			for _, seg := range segs {
				want += int64(seg.EncodedSize())
			}
			if got := sbStore.BytesOf(g); got != want {
				t.Fatalf("iter %d: standby segments of group %d hold %d bytes after a re-seed, want exactly the seed's %d", i, g, got, want)
			}
		case op < 7: // spill marker: demotes the memory tier
			gen := lastGen[g] + 1
			lastGen[g] = gen
			before := sbStore.SegmentCount()
			wellFormed(proto.DeltaEntry{Group: g, Kind: proto.DeltaSpillMark, Payload: markPayload(gen)})
			r.drain(t)
			if got := sbStore.SegmentCount(); got != before+1 {
				t.Fatalf("iter %d: marker produced %d local segments, want %d", i, got, before+1)
			}
			if sb := r.engine.repl.standby[g]; sb == nil || sb.Mem.Gen != gen+1 {
				t.Fatalf("iter %d: memory tier after marker = %+v, want generation %d", i, sb, gen+1)
			}
		case op < 8: // duplicate of an already-applied delta: re-acked, no effect
			if len(sent) == 0 {
				continue
			}
			send(sent[rng.Intn(len(sent))])
			expectAck("duplicate")
		case op < 9: // gap: not applied, answered with where the follower stands
			send(proto.StateDelta{From: "m2", Incarnation: life, Seq: seq + 2 + uint64(rng.Intn(3)),
				Entries: []proto.DeltaEntry{appendEntry(g, 1)}})
			expectAck("gap")
		case op < 10: // the primary restarts: its new life numbers from 1 again
			life += 1 + uint64(rng.Intn(3))
			seq, sent = 0, nil
			wellFormed(appendEntry(g, i))
		case op < 11: // straggler from a life of the primary that is over: dropped, unanswered
			send(proto.StateDelta{From: "m2", Incarnation: life - 1, Seq: seq + 1,
				Entries: []proto.DeltaEntry{appendEntry(g, 2)}})
		default: // malformed: rejected without advancing the sequence
			var ent proto.DeltaEntry
			switch rng.Intn(3) {
			case 0: // truncated spill marker
				ent = proto.DeltaEntry{Group: g, Kind: proto.DeltaSpillMark, Payload: []byte{1, 2, 3}}
			case 1: // garbage image
				ent = proto.DeltaEntry{Group: g, Kind: proto.DeltaSeed, Payload: []byte("not a group image")}
			default: // a retired or unknown kind
				ent = proto.DeltaEntry{Group: g, Kind: proto.DeltaKind(2 + 7*rng.Intn(2)), Payload: nil}
			}
			send(proto.StateDelta{From: "m2", Incarnation: life, Seq: seq + 1, Entries: []proto.DeltaEntry{ent}})
		}

		r.drain(t)
		if got, want := r.engine.repl.standbyBytes, sumStandby(t, r.engine.repl); got != want {
			t.Fatalf("iter %d: standbyBytes = %d, standby memory tiers and encoded tails hold %d", i, got, want)
		}
		if got, want := r.engine.repl.inbound["m2"], (inbound{incarnation: life, applied: seq}); got != want {
			t.Fatalf("iter %d: stream cursor = %+v, want %+v", i, got, want)
		}
	}

	// A final well-formed delta proves the stream is not wedged: gaps,
	// stragglers and malformed deltas never advanced the sequence, so
	// seq+1 is still the next in-order delta.
	wellFormed(appendEntry(0, 9999))
	r.drain(t)
	// No stray acks beyond the ones the model accounted for.
	select {
	case m := <-m2.msgs:
		t.Fatalf("unexpected trailing message to the primary: %+v", m.msg)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestPrimaryReseedsRestartedFollower is the primary's half of the
// incarnation rule. A follower that restarted empty answers the
// primary's next delta (a gap, to it) with sequence 0 under its new
// incarnation; the primary must then seed every group it streams there
// again and renumber from 1. Before incarnations the fresh follower
// stayed silent on the gap and the stream never recovered.
func TestPrimaryReseedsRestartedFollower(t *testing.T) {
	r := newRig(t, nil)
	m2 := newPeer(t, r.net, "m2")
	tick := func() proto.StateDelta {
		t.Helper()
		if err := r.gc.ep.Send("m1", proto.Tick{Kind: proto.TickStats}); err != nil {
			t.Fatal(err)
		}
		return expect[proto.StateDelta](t, m2)
	}
	ackFrom := func(life, seq uint64) {
		t.Helper()
		if err := m2.ep.Send("m1", proto.DeltaAck{Node: "m2", Incarnation: life, Seq: seq}); err != nil {
			t.Fatal(err)
		}
		// Fence the handler. (The drain's own stats report runs the
		// replication tick too: it retransmits whatever is pending and
		// packages whatever is due.)
		r.drain(t)
	}

	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(0, 2, 2)))
	r.gc.ep.Send("m1", proto.ReplicaMap{Version: 1, Entries: []proto.ReplicaEntry{
		{Group: 1, Primary: "m1", Follower: "m2"},
		{Group: 2, Primary: "m1", Follower: "m2"},
	}})
	seed := tick()
	if seed.Seq != 1 || seed.Incarnation != r.engine.repl.incarnation || len(seed.Entries) != 2 {
		t.Fatalf("first delta = seq %d life %d with %d entries, want the two seeds as seq 1 of life %d",
			seed.Seq, seed.Incarnation, len(seed.Entries), r.engine.repl.incarnation)
	}
	ackFrom(100, 1)
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 3)))
	if d := tick(); d.Seq != 2 || d.Entries[0].Kind != proto.DeltaAppend {
		t.Fatalf("second delta = %+v, want the append as seq 2", d)
	}
	stream := r.engine.repl.streams["m2"]

	// A straggling ack from the follower's older life changes nothing.
	ackFrom(99, 2)
	if len(stream.pending) != 1 || stream.pending[0].seq != 2 {
		t.Fatalf("an older life's ack touched the retransmit buffer: %+v", stream.pending)
	}

	// The follower restarts: its new life stands at 0. The fence's tick
	// has already cut the new seeds.
	ackFrom(200, 0)
	if len(stream.pending) != 1 || stream.pending[0].seq != 1 || stream.nextSeq != 1 {
		t.Fatalf("after the follower's restart the stream holds %+v (next seq %d), want the re-seed alone as seq 1",
			stream.pending, stream.nextSeq)
	}
	reseed := stream.pending[0].entries
	if len(reseed) != 2 || reseed[0].Kind != proto.DeltaSeed || reseed[1].Kind != proto.DeltaSeed {
		t.Fatalf("re-seed = %+v, want one seed per streamed group", reseed)
	}
	im, err := spill.DecodeImage(reseed[0].Payload)
	if err != nil || im.Mem == nil || im.Mem.TupleCount() != 2 {
		t.Fatalf("re-seed of group 1 = %+v (err %v), want its two resident tuples", im, err)
	}
}

// failNthWrite is a standby store whose n-th Write fails.
type failNthWrite struct {
	spill.Store
	n int
}

func (s *failNthWrite) Write(snap *join.GroupSnapshot) error {
	if s.n--; s.n == 0 {
		return errors.New("injected write failure")
	}
	return s.Store.Write(snap)
}

// TestDeltaResumesAtTheFailedEntry: a delta whose n-th store write fails
// is not applied, and its retransmit picks up at the entry that
// failed — the follower ends up holding exactly what a fault-free twin
// holds. Re-applying from the top instead duplicates the appends in
// front of the failure and lets the first marker seal its segment again
// over a different memory tier.
func TestDeltaResumesAtTheFailedEntry(t *testing.T) {
	const g = partition.ID(1)
	delta := proto.StateDelta{From: "m2", Seq: 1, Entries: []proto.DeltaEntry{
		{Group: g, Kind: proto.DeltaAppend, Payload: appendPayload(mk(0, 1, 1), mk(1, 1, 2))},
		{Group: g, Kind: proto.DeltaSpillMark, Payload: markPayload(0)},
		{Group: g, Kind: proto.DeltaAppend, Payload: appendPayload(mk(0, 1, 3))},
		{Group: g, Kind: proto.DeltaSpillMark, Payload: markPayload(1)},
	}}
	// follower hands the delta to an engine over the given standby store
	// — sends times: only the last may be applied — and returns what the
	// engine then holds of the group, encoded.
	follower := func(t *testing.T, store spill.Store, sends int) (mem []byte, bytes int64, disk [][]byte) {
		r := newRig(t, func(c *Config) { c.StandbyStore = store })
		newPeer(t, r.net, "m2")
		for i := 1; i <= sends; i++ {
			r.engine.Handle("m2", delta)
			if applied := r.engine.repl.inbound["m2"].applied == 1; applied != (i == sends) {
				t.Fatalf("send %d of %d: applied = %v", i, sends, applied)
			}
		}
		segs, err := store.Read(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			disk = append(disk, join.EncodeSnapshot(seg))
		}
		return join.EncodeSnapshot(r.engine.repl.standby[g].Image()), r.engine.repl.standbyBytes, disk
	}
	wantMem, wantBytes, wantDisk := follower(t, spill.NewMemStore(), 1)
	if len(wantDisk) != 2 {
		t.Fatalf("the fault-free twin stored %d segments, want 2", len(wantDisk))
	}
	for n := 1; n <= 2; n++ {
		mem, bytes, disk := follower(t, &failNthWrite{Store: spill.NewMemStore(), n: n}, 2)
		if !reflect.DeepEqual(mem, wantMem) || bytes != wantBytes || !reflect.DeepEqual(disk, wantDisk) {
			t.Errorf("write %d failed once: follower holds memory tier %x (%d bytes) and segments %x,\nits fault-free twin %x (%d bytes) and %x",
				n, mem, bytes, disk, wantMem, wantBytes, wantDisk)
		}
	}
}

// TestFollowerKeepsNothingOfTheFrame: a StateDelta's entry payloads
// alias the frame it arrived in. The standby a follower builds from
// seeds, appends and markers — and so what a promotion installs — must
// be its own copy by the time each delta's handler returns.
func TestFollowerKeepsNothingOfTheFrame(t *testing.T) {
	const g = partition.ID(1)
	r := newRig(t, nil)
	sent := make([]tuple.Tuple, 6)
	for i := range sent {
		sent[i] = tuple.Tuple{Stream: uint8(i % 2), Key: 1, Seq: uint64(i), Ts: vclock.Time(i),
			Payload: bytes.Repeat([]byte{byte(i + 1)}, 5+7*i)}
	}
	for seq, entries := range [][]proto.DeltaEntry{
		{{Group: g, Kind: proto.DeltaSeed, Payload: seedPayload(
			snap(g, 1, []tuple.Tuple{sent[2]}, []tuple.Tuple{sent[1]}), snap(g, 0, []tuple.Tuple{sent[0]}, nil))}},
		{{Group: g, Kind: proto.DeltaAppend, Payload: appendPayload(sent[3], sent[4])},
			{Group: g, Kind: proto.DeltaSpillMark, Payload: markPayload(1)},
			{Group: g, Kind: proto.DeltaAppend, Payload: appendPayload(sent[5])}},
	} {
		r.engine.Handle("m2", proto.StateDelta{From: "m2", Seq: uint64(seq + 1), Entries: entries})
		for _, ent := range entries {
			recycle(ent.Payload)
		}
	}
	r.engine.Handle("gc", proto.Promote{Epoch: 1, From: "m2", Groups: []partition.ID{g}})
	if ack := expect[proto.PromoteAck](t, r.gc); !ack.Installed {
		t.Fatalf("PromoteAck = %+v", ack)
	}

	segs, err := r.store.Read(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("promotion adopted %d segments, want generations 0 and 1", len(segs))
	}
	var got []tuple.Tuple
	for _, tier := range append(segs, r.engine.Op().ResidentSnapshot(g)) {
		for i := range tier.Inputs {
			for rd, tp := tier.Input(i), (tuple.Tuple{}); rd.Next(&tp); {
				got = append(got, tp)
			}
		}
	}
	slices.SortFunc(got, func(a, b tuple.Tuple) int { return cmp.Compare(a.Seq, b.Seq) })
	if len(got) != len(sent) {
		t.Fatalf("the promoted group holds\n%v\nits primary sent\n%v", got, sent)
	}
	for i := range sent {
		if !reflect.DeepEqual(got[i], sent[i]) {
			t.Errorf("the promoted group holds %v with payload %x, its primary sent %v with payload %x",
				got[i], got[i].Payload, sent[i], sent[i].Payload)
		}
	}
}

// TestReturningGroupIsReseeded: a group this engine gives up (relocated
// away or demoted: forgetOwned) and later owns again under the same
// follower is seeded afresh. A slot left live would stream the returning
// group's appends on top of a standby its follower no longer holds.
func TestReturningGroupIsReseeded(t *testing.T) {
	d := newDesk(t, nil)
	assign := func(version uint64) {
		d.handle("gc", proto.ReplicaMap{Version: version, Entries: []proto.ReplicaEntry{{Group: 1, Primary: "m1", Follower: "m2"}}})
	}
	// cut runs a stats tick and returns the delta it cut (the last one
	// sent: unacknowledged ones are retransmitted ahead of it).
	cut := func() proto.StateDelta {
		t.Helper()
		deltas := sentOf[proto.StateDelta](d.handle("gc", proto.Tick{Kind: proto.TickStats}))
		if len(deltas) == 0 {
			t.Fatal("the stats tick cut no delta")
		}
		return deltas[len(deltas)-1]
	}
	d.handle("gen", dataMsg(t, mk(0, 1, 1)))
	assign(1)
	if dl := cut(); len(dl.Entries) != 1 || dl.Entries[0].Kind != proto.DeltaSeed {
		t.Fatalf("first delta = %+v, want the seed of group 1", dl)
	}
	d.handle("gen", dataMsg(t, mk(1, 1, 2)))
	if dl := cut(); len(dl.Entries) != 1 || dl.Entries[0].Kind != proto.DeltaAppend {
		t.Fatalf("second delta = %+v, want the append", dl)
	}

	d.e.repl.forgetOwned(1)
	d.handle("gen", dataMsg(t, mk(0, 1, 3))) // arrives after the group came back
	assign(2)
	dl := cut()
	if len(dl.Entries) != 1 || dl.Entries[0].Kind != proto.DeltaSeed {
		t.Fatalf("delta after the group came back = %+v, want a fresh seed of group 1", dl)
	}
	im, err := spill.DecodeImage(dl.Entries[0].Payload)
	if err != nil || im.Mem == nil || im.Mem.TupleCount() != 3 {
		t.Fatalf("re-seed = %+v (err %v), want all three resident tuples", im, err)
	}
}
