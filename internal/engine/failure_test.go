package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// TestCleanupReportsCorruptedSegment injects a corrupted spill segment
// and verifies the engine reports the failure instead of leaving the
// requester waiting forever.
func TestCleanupReportsCorruptedSegment(t *testing.T) {
	dir := t.TempDir()
	store, err := spill.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, func(c *Config) { c.Store = store })
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
	r.gc.ep.Send("m1", proto.ForceSpill{Amount: 1 << 20})
	expect[proto.SpillDone](t, r.gc)

	// Corrupt the persisted segment on disk.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no segments on disk: %v", err)
	}
	path := filepath.Join(dir, entries[0].Name())
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := r.app.ep.Send("m1", proto.StartCleanup{}); err != nil {
		t.Fatal(err)
	}
	done := expect[proto.CleanupDone](t, r.app)
	if done.Error == "" {
		t.Fatal("corrupted segment cleanup reported success")
	}
	if !strings.Contains(done.Error, "checksum") {
		t.Fatalf("error does not mention checksum: %q", done.Error)
	}
}

// TestSendStatesToUnreachableReceiverKeepsState verifies the sender
// reinstalls extracted state when the transfer cannot be delivered: an
// aborted relocation must never lose partition groups or disk segments.
func TestSendStatesToUnreachableReceiverKeepsState(t *testing.T) {
	net := transport.NewInproc()
	t.Cleanup(func() { net.Close() })
	store := spill.NewMemStore()
	cfg := Config{
		Node: "m1", Coordinator: "gc", AppServer: "app",
		Inputs: 2, Partitions: 4, Store: store,
		StatsInterval: time.Hour, SpillCheckInterval: time.Hour,
	}
	sender := mustNew(t, cfg, vclock.NewManual())
	if err := sender.Attach(net); err != nil {
		t.Fatal(err)
	}
	gc := newPeer(t, net, "gc")
	newPeer(t, net, "app")
	gen := newPeer(t, net, "gen")
	sender.Start()
	stopOnCleanup(t, sender)
	expect[proto.Hello](t, gc)

	// State in memory and on disk.
	gen.ep.Send("m1", dataMsg(t, mk(0, 0, 1), mk(1, 0, 2), mk(0, 1, 3)))
	gc.ep.Send("m1", proto.ForceSpill{Amount: 1})
	expect[proto.SpillDone](t, gc)
	gen.ep.Send("m1", proto.Drain{Token: 1})
	expect[proto.DrainAck](t, gen)
	memBefore := sender.Op().MemBytes()
	segsBefore := store.SegmentCount()
	outBefore := sender.Op().Output()

	// "m-ghost" is not attached anywhere: the transfer must fail.
	gc.ep.Send("m1", proto.SendStates{
		Epoch: 1, Partitions: sender.Op().ResidentIDs(), Receiver: "m-ghost",
	})
	gen.ep.Send("m1", proto.Drain{Token: 2})
	expect[proto.DrainAck](t, gen)

	if got := sender.Op().MemBytes(); got != memBefore {
		t.Fatalf("resident bytes %d after failed transfer, want %d", got, memBefore)
	}
	if got := store.SegmentCount(); got != segsBefore {
		t.Fatalf("segments %d after failed transfer, want %d", got, segsBefore)
	}
	// The reinstalled resident state still joins: a stream-1 tuple with
	// key 0 matches the resident stream-0 tuple of partition 0.
	gen.ep.Send("m1", dataMsg(t, mk(1, 0, 4)))
	gen.ep.Send("m1", proto.Drain{Token: 3})
	expect[proto.DrainAck](t, gen)
	if sender.Op().Output() != outBefore+1 {
		t.Fatalf("output %d, want %d: reinstalled state does not join", sender.Op().Output(), outBefore+1)
	}
}

// TestEngineSurvivesMalformedData verifies a corrupt data payload is
// rejected without wedging the engine.
func TestEngineSurvivesMalformedData(t *testing.T) {
	r := newRig(t, nil)
	r.gen.ep.Send("m1", proto.Data{Payload: []byte{0xde, 0xad}})
	r.gen.ep.Send("m1", dataMsg(t, mk(0, 1, 1), mk(1, 1, 2)))
	r.drain(t)
	if r.engine.Op().Output() != 1 {
		t.Fatalf("output = %d after malformed batch", r.engine.Op().Output())
	}
}

// TestEngineSurvivesMalformedStateTransfer verifies corrupt transferred
// snapshots are rejected.
func TestEngineSurvivesMalformedStateTransfer(t *testing.T) {
	r := newRig(t, nil)
	good := spill.AppendImage(nil, &spill.Image{Mem: snap(1, 0, []tuple.Tuple{mk(0, 1, 1)}, nil)})
	r.gc.ep.Send("m1", proto.StateTransfer{Epoch: 1, Images: [][]byte{good, {1, 2, 3}}})
	r.drain(t)
	if r.engine.Op().Groups() != 0 {
		t.Fatal("malformed transfer installed state (even its well-formed part must wait for a whole transfer)")
	}
	// No Installed ack must have been produced.
	select {
	case m := <-r.gc.msgs:
		if _, ok := m.msg.(proto.Installed); ok {
			t.Fatal("Installed sent for malformed transfer")
		}
	default:
	}
}
