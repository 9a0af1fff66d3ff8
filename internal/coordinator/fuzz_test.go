package coordinator

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/proto"
)

// FuzzCoordinatorProtocol replays byte-decoded protocol traffic
// synchronously through Coordinator.Handle — two bytes per message, one
// selecting the message type, one the sender/epoch/partition — and
// asserts the safety invariant every adaptation strategy leans on: the
// master partition map always assigns every partition to a known
// engine and its version never goes back, whatever order (or nonsense)
// the protocol messages arrive in.
//
// make check runs this as a short smoke (`make fuzz-smoke`); the grown
// corpus lives in testdata/fuzz/FuzzCoordinatorProtocol.
func FuzzCoordinatorProtocol(f *testing.F) {
	// Seeds: a stats/tick round, epoch/partition garbage, a
	// join/report/leave membership round, a spilled-failover round
	// (reports with spilled replication lag, then promote/demote
	// acks) — and the three TestFuzzSeedsReach holds to the state their
	// name promises. The selector byte can only guess ids 0–3, so these
	// are also the canary for a change in id allocation that would turn
	// the corpus into no-ops.
	f.Add([]byte{0, 0, 0, 1, 1, 0})
	f.Add([]byte{2, 255, 2, 14, 4, 192, 5, 255, 3, 0, 10, 0, 0, 1})
	f.Add([]byte{11, 2, 15, 2, 1, 0, 1, 0, 12, 2, 1, 0, 11, 2})
	f.Add([]byte{15, 9, 15, 25, 6, 9, 15, 8, 1, 0, 13, 72, 13, 73, 14, 64, 15, 0, 1, 0})
	f.Add(seedRelocation)
	f.Add(seedForcedSpill)
	f.Add(seedPromotion)
	f.Fuzz(func(t *testing.T, data []byte) { replay(t, data) })
}

var (
	// Full relocation handshake: reports 0 vs 16 bytes, tick (CptV to m2
	// under id 1), then PtV, MarkerAck, Installed and RemapAck for id 1.
	seedRelocation = []byte{0, 0, 0, 1, 1, 0, 2, 65, 3, 64, 4, 66, 5, 64}
	// Forced spill + quiesce: balanced memory, m1 unproductive, tick
	// (ForceSpill to m1 under id 1), SpillDone for id 1, quiesce.
	seedForcedSpill = []byte{0, 254, 0, 255, 1, 0, 6, 64, 8, 0}
	// Promotion ack mix: balanced output-less reports, a tick for the
	// follower ring, m1 alone heartbeats across 61 s so m2 dies (its
	// pause draws id 1, the promotion id 2), PromoteAck and RemapAck for
	// id 2, then m2 revives and acks its demote (id 3).
	seedPromotion = []byte{15, 252, 15, 253, 1, 0, 1, 30, 7, 0, 1, 31, 13, 129, 5, 128, 7, 1, 14, 193}
)

// replay decodes data into protocol traffic and feeds it to a fresh
// coordinator, checking the map invariants after every message.
func replay(t *testing.T, data []byte) *syncRig {
	// Deadlines stay off (the decoder has no op for them); the watchdog
	// is on, and a tick's selector advances the clock by that many
	// seconds, so engines can die and revive. Active-disk decides
	// relocations exactly like lazy-disk and forces spills besides.
	g := newSyncRig(t, 2, activeDisk(), true, func(cfg *Config) { cfg.RelocTimeout = 0 })
	engines := []partition.NodeID{"m1", "m2"}
	// members adds the runtime joiner m3: membership and replication
	// messages may come from (or be about) a node the static config
	// never listed.
	members := []partition.NodeID{"m1", "m2", "m3"}
	g.engines = members
	if len(data) > 256 {
		data = data[:256]
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, sel := data[i], data[i+1]
		from := engines[int(sel&1)]
		node := members[int(sel)%3]
		epoch := uint64(sel >> 6)
		var msg proto.Message
		switch op % 16 {
		case 0:
			msg = proto.StatsReport{Node: from, MemBytes: int64(sel) * 16, Groups: 4, Output: uint64(i)}
		case 1:
			g.clock.Advance(time.Duration(sel) * time.Second)
			msg = proto.Tick{Kind: proto.TickLB}
		case 2:
			// Partition may be out of range (the map has 8).
			msg = proto.PtV{Epoch: epoch, Node: from, Partitions: []partition.ID{partition.ID(sel % 16)}}
		case 3:
			msg = proto.MarkerAck{Epoch: epoch, Node: node}
		case 4:
			msg = proto.Installed{Epoch: epoch, Node: node}
		case 5:
			msg = proto.RemapAck{Epoch: epoch}
		case 6:
			msg = proto.SpillDone{Node: from, Bytes: int64(sel), Seq: epoch}
		case 7:
			msg = proto.Hello{Node: from, Kind: proto.KindEngine}
		case 8:
			from = "gen"
			msg = proto.Quiesce{}
		case 9:
			// Not a coordinator message: must be ignored, not crash.
			msg = proto.ResultCount{Delta: uint64(sel)}
		case 10:
			msg = proto.Stop{}
		case 11:
			// m3 is a genuine runtime joiner; m1/m2 re-ack; a node
			// that already left must be refused.
			msg = proto.JoinRequest{Node: node}
		case 12:
			msg = proto.Leave{Node: node}
		case 13:
			msg = proto.PromoteAck{Epoch: epoch, Node: node, Installed: sel&8 != 0}
		case 14:
			msg = proto.DemoteAck{Epoch: epoch, Node: node}
		case 15:
			// Replication-rich report: lag for a possibly out-of-range
			// group, an arbitrary replica-map version, and — when the
			// selector's segment bit is set — spilled bytes that
			// dominate the group's lag (a spilled group awaiting its
			// seed), so the settled fence and failover paths see
			// segment-bearing lag too.
			report := proto.StatsReport{Node: node, MemBytes: int64(sel) * 8, Groups: 2,
				ReplVersion: uint64(sel >> 4),
				ReplLag:     map[partition.ID]int64{partition.ID(sel % 16): int64(sel)},
			}
			if sel&8 != 0 {
				report.ReplLag[partition.ID(sel%16)] += int64(sel) * 64
			}
			msg = report
		}
		g.handle(from, msg)
	}
	return g
}

// TestFuzzSeedsReach keeps the fuzz seeds honest. The three named seeds
// must still reach the state they were written for, and the committed
// corpus as a whole must still get adaptations past their first step:
// the decoder guesses ids 0–3 from two selector bits, so a change in id
// allocation silently turns every input into a string of ignored
// messages — which is how the previous "full relocation handshake",
// "forced spill + quiesce" and "promotion ack mix" seeds had come to
// send one CptV and nothing else.
func TestFuzzSeedsReach(t *testing.T) {
	if g := replay(t, seedRelocation); g.coord.Relocations() != 1 {
		t.Errorf("relocation seed: %d relocations, want 1 (sent %v)", g.coord.Relocations(), g.out)
	}
	if g := replay(t, seedForcedSpill); g.coord.ForcedSpills() != 1 {
		t.Errorf("forced-spill seed: %d forced spills, want 1 (sent %v)", g.coord.ForcedSpills(), g.out)
	} else if _, ok := g.last().msg.(proto.QuiesceAck); !ok {
		t.Errorf("forced-spill seed: quiesce unanswered, last sent %T", g.last().msg)
	}
	g := replay(t, seedPromotion)
	if promote, to := lastOf[proto.Promote](g); to != "m1" || promote.From != "m2" {
		t.Errorf("promotion seed: Promote %+v to %s, want m2's groups to m1", promote, to)
	}
	if g.coord.Promotions() != 1 || g.coord.Demotions() != 1 || g.unresolved() != 0 {
		t.Errorf("promotion seed: promotions %d, demotions %d, unresolved %d; want 1, 1, 0",
			g.coord.Promotions(), g.coord.Demotions(), g.unresolved())
	}

	corpus, err := filepath.Glob("testdata/fuzz/FuzzCoordinatorProtocol/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no committed corpus: %v", err)
	}
	progressed := 0
	for _, path := range corpus {
		if sentPastFirstStep(replay(t, corpusInput(t, path))) {
			progressed++
		}
	}
	t.Logf("%d of %d corpus inputs get an adaptation past its first step", progressed, len(corpus))
	if progressed < corpusFloor {
		t.Errorf("only %d of %d corpus inputs get an adaptation past its first step, want at least %d",
			progressed, len(corpus), corpusFloor)
	}
}

// corpusFloor is how many of the committed corpus inputs got an
// adaptation past its first step when the floor was last set.
const corpusFloor = 1

// sentPastFirstStep reports whether some ack was accepted: the
// coordinator sent a message only a later plan step sends.
func sentPastFirstStep(g *syncRig) bool {
	for _, s := range g.out {
		switch m := s.msg.(type) {
		case proto.SendStates, proto.Remap:
			return true
		case proto.Pause:
			if m.Trace.Valid() { // a relocation's, not the watchdog's
				return true
			}
		}
	}
	return false
}

// corpusInput reads the []byte of a `go test fuzz v1` corpus file.
func corpusInput(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(string(raw), "[]byte(")
	if !ok {
		t.Fatalf("%s: not a []byte corpus file", path)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}

// TestProtocolRobustToRandomMessages bombards the coordinator with
// randomized, partly nonsensical protocol traffic and verifies two safety
// properties: the master partition map always assigns every partition to
// a configured engine, and the coordinator never wedges (it still answers
// a final quiesce).
func TestProtocolRobustToRandomMessages(t *testing.T) {
	r := newRig(t, lazy())
	rng := rand.New(rand.NewSource(4))
	engines := []partition.NodeID{"m1", "m2"}
	peers := map[partition.NodeID]*peer{"m1": r.m1, "m2": r.m2}

	r.report(t, "m1", 1000, 100)
	r.report(t, "m2", 100, 10)

	for i := 0; i < 400; i++ {
		from := engines[rng.Intn(len(engines))]
		epoch := uint64(rng.Intn(4))
		var msg proto.Message
		switch rng.Intn(8) {
		case 0:
			msg = proto.StatsReport{Node: from, MemBytes: int64(rng.Intn(2000)), Groups: 4, Output: uint64(i)}
		case 1:
			msg = proto.Tick{Kind: proto.TickLB}
		case 2:
			parts := []partition.ID{partition.ID(rng.Intn(12))} // may be out of range (map has 8)
			msg = proto.PtV{Epoch: epoch, Node: from, Partitions: parts}
		case 3:
			msg = proto.MarkerAck{Epoch: epoch, Node: from}
		case 4:
			msg = proto.Installed{Epoch: epoch, Node: from}
		case 5:
			msg = proto.RemapAck{Epoch: epoch}
		case 6:
			msg = proto.SpillDone{Node: from, Bytes: int64(rng.Intn(1000)), Seq: epoch}
		case 7:
			msg = proto.Hello{Node: from, Kind: proto.KindEngine}
		}
		if err := peers[from].ep.Send("gc", msg); err != nil {
			t.Fatal(err)
		}
	}

	// Give the handler a moment to chew through the queue, then check
	// liveness via quiesce and map safety.
	time.Sleep(50 * time.Millisecond)
	r.gen.ep.Send("gc", proto.Quiesce{})
	// The protocol may be legitimately mid-flight from the random PtVs;
	// feed it completions until the quiesce ack arrives.
	deadline := time.After(5 * time.Second)
	for {
		// Unblock any phase the random traffic may have reached.
		for _, from := range engines {
			for epoch := uint64(1); epoch <= 4; epoch++ {
				// A PtV counts only from the relocation's sender, so the
				// random traffic can leave one waiting: an empty choice
				// ends it.
				peers[from].ep.Send("gc", proto.PtV{Epoch: epoch, Node: from})
				peers[from].ep.Send("gc", proto.MarkerAck{Epoch: epoch, Node: from})
				peers[from].ep.Send("gc", proto.Installed{Epoch: epoch, Node: from})
				peers[from].ep.Send("gc", proto.RemapAck{Epoch: epoch})
				peers[from].ep.Send("gc", proto.SpillDone{Node: from, Seq: epoch})
			}
		}
		select {
		case m := <-r.gen.msgs:
			if _, ok := m.(proto.QuiesceAck); ok {
				goto done
			}
		case <-deadline:
			t.Fatal("coordinator wedged: no quiesce ack")
		}
	}
done:
	owners := map[partition.NodeID]bool{"m1": true, "m2": true}
	for id := 0; id < r.pmap.N(); id++ {
		o, err := r.pmap.Owner(partition.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !owners[o] {
			t.Fatalf("partition %d owned by unknown node %q", id, o)
		}
	}
}

// TestQuiesceDuringForcedSpill verifies the quiesce fence also waits for
// an in-flight forced spill.
func TestQuiesceDuringForcedSpill(t *testing.T) {
	strategy := core.NewActiveDisk(core.ActiveDiskConfig{
		Relocation:     core.RelocationConfig{Threshold: 0.5, MinGap: 0},
		Lambda:         2,
		ForcedFraction: 0.5,
	})
	r := newRig(t, strategy)
	r.report(t, "m1", 1000, 1000)
	r.report(t, "m2", 900, 1)
	r.tick(t)
	fs := expect[proto.ForceSpill](t, r.m2)
	if fs.Amount <= 0 {
		t.Fatalf("ForceSpill = %+v", fs)
	}
	r.gen.ep.Send("gc", proto.Quiesce{})
	expectNothing(t, r.gen) // still waiting for SpillDone
	r.m2.ep.Send("gc", proto.SpillDone{Node: "m2", Bytes: fs.Amount, Seq: fs.Seq})
	expect[proto.QuiesceAck](t, r.gen)
}
