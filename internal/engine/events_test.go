package engine

import (
	"errors"
	"testing"

	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
)

// failRead is a store whose every Read fails.
type failRead struct{ spill.Store }

func (failRead) Read(partition.ID) ([]*join.GroupSnapshot, error) {
	return nil, errors.New("injected read failure")
}

// What the engine cannot do it logs, under the event name operators
// grep for: a join the coordinator refuses, a replication seed it cannot
// read, results it cannot ship.
func TestEngineLogsWhatItCannotDo(t *testing.T) {
	for event, setup := range map[string]func(t *testing.T) *rig{
		"join_refused": func(t *testing.T) *rig {
			r := newRig(t, nil)
			r.gc.ep.Send("m1", proto.JoinAck{Node: "m1", Reason: "name taken by an engine that left"})
			return r
		},
		"replication_tick_error": func(t *testing.T) *rig {
			r := newRig(t, func(c *Config) { c.Store = failRead{spill.NewMemStore()} })
			newPeer(t, r.net, "m2")
			r.gc.ep.Send("m1", proto.ReplicaMap{Version: 1, Entries: []proto.ReplicaEntry{{Group: 1, Primary: "m1", Follower: "m2"}}})
			r.gc.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
			return r
		},
		"result_flush_error": func(t *testing.T) *rig {
			r := newRig(t, func(c *Config) { c.Materialize = true })
			r.app.ep.Close()
			r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
			r.gen.ep.Send("m1", proto.Tick{Kind: proto.TickStats})
			return r
		},
	} {
		t.Run(event, func(t *testing.T) {
			r := setup(t)
			// A marker fences the handler without the application server.
			r.gen.ep.Send("m1", proto.PauseMarker{Epoch: 9})
			expect[proto.MarkerAck](t, r.gc)
			for _, ent := range r.engine.log.Recent(0) {
				if ent.Event == event {
					return
				}
			}
			t.Fatalf("no %s event in %v", event, r.engine.log.Recent(0))
		})
	}
}
