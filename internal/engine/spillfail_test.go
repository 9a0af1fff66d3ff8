package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/tuple"
)

// A forced spill whose n-th store write fails, for every n over the
// engine's four groups, still answers SpillDone with the bytes it did
// persist, logs the failure, and loses nothing: the group it could not
// write stays resident, the next spill persists it, and the run-time
// results plus the cleanup's are exactly the oracle's, none twice.
func TestEngineSpillWriteFailureStaysExact(t *testing.T) {
	const groups, keys = 4, 8
	for n := 1; n <= groups; n++ {
		t.Run(fmt.Sprintf("fail=%d", n), func(t *testing.T) {
			store := &failNthWrite{Store: spill.NewMemStore(), n: n}
			r := newRig(t, func(c *Config) { c.Materialize, c.Store, c.Partitions = true, store, groups })
			var history []tuple.Tuple
			feed := func() {
				var batch []tuple.Tuple
				for key := uint64(0); key < keys; key++ {
					for stream := uint8(0); stream < 2; stream++ {
						batch = append(batch, mk(stream, key, uint64(len(history)+len(batch))))
					}
				}
				history = append(history, batch...)
				if err := r.gen.ep.Send("m1", dataMsg(t, batch...)); err != nil {
					t.Fatal(err)
				}
			}
			seq := uint64(0)
			spillAll := func() proto.SpillDone {
				seq++
				if err := r.gc.ep.Send("m1", proto.ForceSpill{Amount: 1 << 20, Seq: seq}); err != nil {
					t.Fatal(err)
				}
				return expect[proto.SpillDone](t, r.gc)
			}

			feed()
			done := spillAll()
			var persisted int64
			for _, g := range store.Groups() {
				segs, err := store.Read(g)
				if err != nil {
					t.Fatal(err)
				}
				for _, seg := range segs {
					persisted += seg.MemBytes()
				}
			}
			if len(store.Groups()) != n-1 || done.Bytes != persisted {
				t.Fatalf("SpillDone reports %d bytes; the store holds %d groups and %d bytes, want %d groups",
					done.Bytes, len(store.Groups()), persisted, n-1)
			}
			if r.engine.Op().MemBytes() == 0 {
				t.Fatal("the group whose write failed is not resident")
			}
			feed()
			if done := spillAll(); done.Bytes == 0 || r.engine.Op().MemBytes() != 0 {
				t.Fatalf("the spill after the failure persisted %d bytes and left %d resident", done.Bytes, r.engine.Op().MemBytes())
			}
			feed()

			got := tuple.NewResultSet()
			if err := r.app.ep.Send("m1", proto.StartCleanup{}); err != nil {
				t.Fatal(err)
			}
			timeout := time.After(5 * time.Second)
			for cleaned := false; !cleaned; {
				select {
				case m := <-r.app.msgs:
					switch msg := m.msg.(type) {
					case proto.CleanupDone:
						if msg.Error != "" {
							t.Fatalf("cleanup failed: %s", msg.Error)
						}
						cleaned = true
					case proto.ResultData:
						rd, err := tuple.ReadResults(msg.Payload)
						if err != nil {
							t.Fatal(err)
						}
						for res := (tuple.Result{}); rd.Next(&res); {
							if !got.Add(res) {
								t.Fatalf("result %v shipped twice", res)
							}
						}
					}
				case <-timeout:
					t.Fatal("timed out waiting for CleanupDone")
				}
			}
			want := join.Oracle(2, history)
			if uint64(got.Len()) != join.OracleCount(2, history) || len(want.Diff(got)) != 0 {
				t.Fatalf("runtime and cleanup shipped %d results, the oracle has %d", got.Len(), want.Len())
			}
			logged := false
			for _, ent := range r.engine.log.Recent(0) {
				logged = logged || ent.Event == "spill_error"
			}
			if !logged {
				t.Fatalf("no spill_error event in %v", r.engine.log.Recent(0))
			}
		})
	}
}
