package cluster

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// A result callback may ask the application server for its counts, as
// distq.Cluster.Snapshot does: callbacks run outside the server's lock,
// in arrival order, after the frame's results are counted.
func TestAppServerCallbackMayReadCounts(t *testing.T) {
	var a *AppServer
	var seen []uint64
	a = NewAppServer(vclock.NewManual(), true, func(_ proto.Phase, r tuple.Result) {
		if d := a.Duplicates(); d != 1 {
			t.Errorf("result %d: Duplicates = %d inside the callback, want 1", r.Key, d)
		}
		seen = append(seen, r.Key)
	})
	var payload []byte
	for _, r := range []tuple.Result{{Key: 1, Seqs: []uint64{1, 2}}, {Key: 2, Seqs: []uint64{3, 4}}, {Key: 1, Seqs: []uint64{1, 2}}} {
		payload = r.AppendTo(payload)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.handle("m1", proto.ResultData{Node: "m1", Phase: proto.PhaseRuntime, Payload: payload})
	}()
	select {
	case <-done:
	case <-vclock.WallTimeout(5 * time.Second):
		t.Fatal("the handler did not return: a callback that reads the server's counts deadlocked it")
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 1 {
		t.Fatalf("callbacks saw keys %v, want [1 2 1]", seen)
	}
}
