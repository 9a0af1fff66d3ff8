package engine

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// The serial data path joins a batch straight off the wire: nothing is
// allocated per batch (AllocsPerRun divides by the runs and rounds down,
// so the operator's amortized growth — a record chunk every few batches
// — rounds to 0 and a single per-batch allocation to 1).
func TestOnDataAllocsPerBatch(t *testing.T) {
	e := mustNew(t, Config{Node: "m1", Inputs: 2, Partitions: 4}, vclock.NewManual())
	var b tuple.Batch
	for i := 0; i < 64; i++ {
		b.Tuples = append(b.Tuples, mk(uint8(i%2), uint64(i/2%16), uint64(i)))
	}
	m := proto.Data{Payload: b.Encode()}
	if got := testing.AllocsPerRun(100, func() {
		if err := e.onData(m); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("onData allocates %v times per batch, want 0", got)
	}
	if e.op.Output() == 0 {
		t.Fatal("the batches joined nothing")
	}
}

// With replication on, the tap adds nothing per tuple either: once a
// stats tick has seeded the groups and a tick's worth of appends has
// grown each slot's buffer, which the slot keeps across cuts, a batch
// appends to it by one index per tuple.
func TestOnDataReplicatingAllocsPerBatch(t *testing.T) {
	e := mustNew(t, Config{Node: "m1", Inputs: 2, Partitions: 4}, vclock.NewManual())
	e.ep = &syncNet{node: "m1"}
	var entries []proto.ReplicaEntry
	for g := partition.ID(0); g < 4; g++ {
		entries = append(entries, proto.ReplicaEntry{Group: g, Primary: "m1", Follower: "m2"})
	}
	if err := e.repl.applyMap(proto.ReplicaMap{Version: 1, Entries: entries}); err != nil {
		t.Fatal(err)
	}
	var b tuple.Batch
	for i := 0; i < 64; i++ {
		b.Tuples = append(b.Tuples, mk(uint8(i%2), uint64(i/2%16), uint64(i)))
	}
	m := proto.Data{Payload: b.Encode()}
	const runs = 50
	for i := 0; i < 2; i++ { // the seed, then a tick's worth of appends
		for j := 0; j < runs; j++ {
			if err := e.onData(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.repl.tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(runs-1, func() {
		if err := e.onData(m); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("onData allocates %v times per batch with replication on, want 0", got)
	}
	for g, sl := range e.repl.tap {
		if sl.Live == nil || len(sl.Buf) != runs*len(b.Tuples)/4*b.Tuples[0].EncodedSize() {
			t.Fatalf("slot of group %d: live %v, %d bytes buffered", g, sl.Live != nil, len(sl.Buf))
		}
	}
}

// A malformed batch is rejected whole: none of the well-formed tuples in
// front of the damage reaches the join or the replication buffer.
func TestOnDataRejectsMalformedBatchWhole(t *testing.T) {
	good := dataMsg(t, mk(0, 1, 1), mk(1, 1, 2), mk(0, 1, 3)).Payload
	count := func(n uint32) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b, n)
		return b
	}
	for name, payload := range map[string][]byte{
		"short header":          good[:3],
		"count beyond capacity": count(1 << 30),
		"count too small":       count(2),
		"truncated payload":     good[:len(good)-1],
		"trailing bytes":        append(bytes.Clone(good), 0),
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, nil)
			r.gc.ep.Send("m1", proto.ReplicaMap{Version: 1, Entries: []proto.ReplicaEntry{{Group: 1, Primary: "m1", Follower: "m2"}}})
			r.gc.ep.Send("m1", proto.Tick{Kind: proto.TickStats}) // the (empty) group needs no seed any more
			expect[proto.StatsReport](t, r.gc)
			r.gen.ep.Send("m1", proto.Data{Payload: payload})
			r.drain(t)
			if out, mem := r.engine.Op().Output(), r.engine.Op().MemBytes(); out != 0 || mem != 0 {
				t.Fatalf("join holds %d bytes and produced %d results from a rejected batch", mem, out)
			}
			for g, sl := range r.engine.repl.tap {
				if len(sl.Buf) != 0 {
					t.Fatalf("replication buffer of group %d holds %d bytes from a rejected batch", g, len(sl.Buf))
				}
			}
			logged := false
			for _, ent := range r.engine.log.Recent(0) {
				logged = logged || ent.Event == "handler_error"
			}
			if !logged {
				t.Fatal("the rejection was not logged")
			}
		})
	}
}

// recycle overwrites frames the way the TCP transport's pooled read
// buffer may be the moment the handler they were delivered to returns
// (PROTOCOL.md "Buffer ownership"). The tests here call Engine.Handle
// themselves, so the frames are theirs to recycle; whole clusters run
// over poisoned TCP in internal/experiments.
func recycle(frames ...[]byte) {
	for _, f := range frames {
		for i := range f {
			f[i] = 0xAA
		}
	}
}

// Whatever the engine keeps of a Data batch — join state, the
// replication buffer — must be its own copy by the time the handler
// returns.
func TestOnDataKeepsNothingOfTheFrame(t *testing.T) {
	// The join runs as one shard, on the handler goroutine.
	t.Run("shards=1", func(t *testing.T) {
		net := transport.NewInproc()
		t.Cleanup(func() { net.Close() })
		e := mustNew(t, Config{
			Node: "m1", Coordinator: "gc", AppServer: "app", Inputs: 2, Partitions: 4,
			StatsInterval: time.Hour, SpillCheckInterval: time.Hour,
		}, vclock.NewManual())
		if err := e.Attach(net); err != nil {
			t.Fatal(err)
		}
		stopOnCleanup(t, e)
		gc, gen, m2 := newPeer(t, net, "gc"), newPeer(t, net, "gen"), newPeer(t, net, "m2")
		newPeer(t, net, "app")
		var entries []proto.ReplicaEntry
		for g := partition.ID(0); g < 4; g++ {
			entries = append(entries, proto.ReplicaEntry{Group: g, Primary: "m1", Follower: "m2"})
		}
		e.Handle("gc", proto.ReplicaMap{Version: 1, Entries: entries})
		e.Handle("gc", proto.Tick{Kind: proto.TickStats}) // empty groups: seeded by nothing
		expect[proto.StatsReport](t, gc)

		var want []tuple.Tuple
		for batch := 0; batch < 8; batch++ {
			var b tuple.Batch
			for i := 0; i < 64; i++ {
				seq := uint64(batch*64 + i)
				tp := tuple.Tuple{Stream: uint8(i % 2), Key: seq % 23, Seq: seq, Ts: vclock.Time(seq),
					Payload: bytes.Repeat([]byte{byte(seq)}, 1+i%40)}
				b.Tuples = append(b.Tuples, tp)
				want = append(want, tp)
			}
			frame := b.Encode()
			e.Handle("gen", proto.Data{Payload: frame})
			recycle(frame)
		}
		e.Handle("gen", proto.Drain{Token: 1})
		expect[proto.DrainAck](t, gen)

		bySeq := make(map[uint64]tuple.Tuple, len(want))
		for _, tp := range want {
			bySeq[tp.Seq] = tp
		}
		check := func(where string, got tuple.Tuple) {
			t.Helper()
			w, ok := bySeq[got.Seq]
			if !ok || w.Stream != got.Stream || w.Key != got.Key || w.Ts != got.Ts || !bytes.Equal(w.Payload, got.Payload) {
				t.Fatalf("%s holds %v with payload %x, sent %v with payload %x", where, got, got.Payload, w, w.Payload)
			}
		}
		stored := 0
		for _, g := range e.Op().ResidentIDs() {
			snap := e.Op().ResidentSnapshot(g)
			for i := range snap.Inputs {
				for r, tp := snap.Input(i), (tuple.Tuple{}); r.Next(&tp); {
					check("join state", tp)
					stored++
				}
			}
		}
		// The drain's stats report cut the buffered appends into a delta.
		replicated := 0
		for _, ent := range expect[proto.StateDelta](t, m2).Entries {
			if ent.Kind != proto.DeltaAppend {
				t.Fatalf("delta entry of kind %d, want appends only", ent.Kind)
			}
			r, err := tuple.ReadRun(ent.Payload)
			if err != nil {
				t.Fatal(err)
			}
			var tp tuple.Tuple
			for r.Next(&tp) {
				check("replication delta", tp)
				replicated++
			}
		}
		if stored != len(want) || replicated != len(want) {
			t.Fatalf("join state holds %d and the delta %d of %d tuples", stored, replicated, len(want))
		}
		e.Stop()
	})
}
