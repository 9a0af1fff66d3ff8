package cluster

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
)

// remapTap records, by epoch, every Remap that reaches the split host.
type remapTap struct {
	transport.Network
	mu     sync.Mutex
	remaps map[uint64]proto.Remap
}

func (n *remapTap) Attach(node partition.NodeID, h transport.Handler) (transport.Endpoint, error) {
	if node != GeneratorNode {
		return n.Network.Attach(node, h)
	}
	return n.Network.Attach(node, func(from partition.NodeID, msg proto.Message) {
		if m, ok := msg.(proto.Remap); ok {
			n.mu.Lock()
			n.remaps[m.Epoch] = m
			n.mu.Unlock()
		}
		h(from, msg)
	})
}

// TestRelocationTraceReassembles drives a full 8-step relocation across
// the coordinator and engines, then rebuilds the distributed trace from
// the merged per-node span dumps: every relocation must reassemble into
// a single tree rooted at the coordinator's decision span, with the
// coordinator's await phases and the sender/receiver protocol spans as
// children attributed to the nodes that recorded them.
func TestRelocationTraceReassembles(t *testing.T) {
	cfg := baseConfig()
	cfg.Engines = []partition.NodeID{"m1", "m2", "m3"}
	cfg.InitialWeights = []int{4, 1, 1}
	cfg.Strategy = core.NewLazyDisk(core.RelocationConfig{Threshold: 0.8, MinGap: 20 * time.Second})
	cfg.Duration = 3 * time.Minute
	tap := &remapTap{Network: transport.NewInproc(), remaps: make(map[uint64]proto.Remap)}
	defer tap.Close()
	cfg.Network = tap
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relocations == 0 {
		t.Fatal("no relocations despite 4:1:1 placement")
	}

	trees := trace.ByName(trace.Build(res.Spans), obs.SpanRelocation)
	if len(trees) != res.Relocations {
		t.Fatalf("reassembled %d relocation trees, counter says %d", len(trees), res.Relocations)
	}

	for _, tree := range trees {
		root := tree.Root.Span
		if root.Node != string(CoordinatorNode) {
			t.Fatalf("relocation rooted on %q, want %q", root.Node, CoordinatorNode)
		}
		if root.Attrs["decision"] != core.ReasonImbalance {
			t.Fatalf("relocation root's decision = %q, want %q", root.Attrs["decision"], core.ReasonImbalance)
		}
		if !root.Complete || root.Attrs["status"] != obs.StatusOK {
			// The run can end mid-relocation; only completed relocations
			// carry the full protocol.
			continue
		}
		if len(root.Steps) != len(obs.RelocationSteps) {
			t.Fatalf("root span has %d steps, want %d", len(root.Steps), len(obs.RelocationSteps))
		}
		if len(tree.Orphans) != 0 {
			t.Fatalf("trace %016x has %d orphans:\n%s", tree.TraceID, len(tree.Orphans), tree.Render())
		}
		if got := tree.Root.Descendants(); got < 8 {
			t.Fatalf("trace %016x has %d child spans, want >= 8:\n%s", tree.TraceID, got, tree.Render())
		}

		from, to := root.Attrs["sender"], root.Attrs["receiver"]
		if from == "" || to == "" || from == to {
			t.Fatalf("root attrs missing endpoints: %v", root.Attrs)
		}
		// The commit's Remap (the step relocation_wait_remap_ack awaits)
		// reaches the split host under the relocation's trace, like
		// every other step the coordinator's driver sends.
		epoch, _ := strconv.ParseUint(root.Attrs["epoch"], 10, 64)
		tap.mu.Lock()
		remap, ok := tap.remaps[epoch]
		tap.mu.Unlock()
		if !ok || string(remap.Owner) != to || remap.Trace.TraceID != tree.TraceID {
			t.Fatalf("split host saw Remap %+v (seen %v) for epoch %d, want owner %s under trace %016x",
				remap, ok, epoch, to, tree.TraceID)
		}
		// Expected child -> recording node: the coordinator's four await
		// phases on gc, the sender's cptv/marker/send on the source
		// engine, the receiver's install on the destination engine.
		wantNode := map[string]string{
			obs.SpanRelocWaitPtV:      string(CoordinatorNode),
			obs.SpanRelocWaitMarker:   string(CoordinatorNode),
			obs.SpanRelocWaitInstall:  string(CoordinatorNode),
			obs.SpanRelocWaitRemapAck: string(CoordinatorNode),
			obs.SpanRelocationCptV:    from,
			obs.SpanRelocationMarker:  from,
			obs.SpanRelocationSend:    from,
			obs.SpanRelocationReceive: to,
		}
		seen := map[string]int{}
		for _, c := range tree.Root.Children {
			seen[c.Span.Name]++
			want, ok := wantNode[c.Span.Name]
			if !ok {
				t.Fatalf("unexpected child span %q in:\n%s", c.Span.Name, tree.Render())
			}
			if c.Span.Node != want {
				t.Fatalf("child %s recorded on %q, want %q:\n%s", c.Span.Name, c.Span.Node, want, tree.Render())
			}
			if !c.Span.Complete {
				t.Fatalf("child %s left open:\n%s", c.Span.Name, tree.Render())
			}
			if c.Span.TraceID != tree.TraceID {
				t.Fatalf("child %s trace %016x, tree %016x", c.Span.Name, c.Span.TraceID, tree.TraceID)
			}
		}
		for name := range wantNode {
			if seen[name] != 1 {
				t.Fatalf("child %s appears %d times, want 1:\n%s", name, seen[name], tree.Render())
			}
		}
		// The sender's marker fence happens strictly after its cptv
		// decision in virtual time.
		cptv := tree.Find(obs.SpanRelocationCptV).Span
		marker := tree.Find(obs.SpanRelocationMarker).Span
		if marker.Start < cptv.Start {
			t.Fatalf("marker at %v before cptv at %v", marker.Start, cptv.Start)
		}
	}

	// The trace IDs must separate concurrent relocations: every tree has
	// a distinct ID.
	ids := map[uint64]bool{}
	for _, tree := range trees {
		if ids[tree.TraceID] {
			t.Fatalf("trace ID %016x reused", tree.TraceID)
		}
		ids[tree.TraceID] = true
	}
}

// TestForcedSpillTraceReassembles: ForceSpill carries the coordinator's
// decision span to the engine, so every completed forced spill is one
// tree — the coordinator's forced_spill root with the victim's spill
// span as its only child.
func TestForcedSpillTraceReassembles(t *testing.T) {
	res, err := Run(activeDiskConfig())
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, tree := range trace.ByName(trace.Build(res.Spans), obs.SpanForcedSpill) {
		root := tree.Root.Span
		if root.Attrs["decision"] != core.ReasonProductivityGap {
			t.Fatalf("forced spill root's decision = %q, want %q", root.Attrs["decision"], core.ReasonProductivityGap)
		}
		if !root.Complete || root.Attrs["status"] != obs.StatusOK {
			continue // the run can end with a forced spill in flight
		}
		completed++
		if len(tree.Orphans) != 0 || len(tree.Root.Children) != 1 {
			t.Fatalf("forced spill has %d children and %d orphans, want one spill child:\n%s",
				len(tree.Root.Children), len(tree.Orphans), tree.Render())
		}
		child := tree.Root.Children[0].Span
		if child.Name != obs.SpanSpill || child.Node != root.Attrs["node"] || child.TraceID != tree.TraceID ||
			!child.Complete || child.Attrs["kind"] != "forced" {
			t.Fatalf("forced spill of %s has child %+v:\n%s", root.Attrs["node"], child, tree.Render())
		}
	}
	if completed == 0 || completed != forcedSpills(res) {
		t.Fatalf("reassembled %d completed forced-spill trees, counter says %d", completed, forcedSpills(res))
	}
}

// TestDrainAndPromotionRootsCarryTheDecision: like the relocation and
// forced-spill roots above, a drain's and a promotion's root span carry
// the reason core.Decide gave for them. m3 leaves, then m2 crashes.
func TestDrainAndPromotionRootsCarryTheDecision(t *testing.T) {
	cfg := baseConfig()
	cfg.Engines = []partition.NodeID{"m1", "m2", "m3"}
	cfg.Scale = 600
	cfg.Replicate = true
	cfg.HeartbeatTimeout = time.Minute
	cfg.RelocTimeout = 30 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Feed(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave("m3"); err != nil {
		t.Fatal(err)
	}
	if !c.Await(30*time.Second, func() bool { return c.EngineLeft("m3") && c.PartitionsPaused() == 0 }) {
		t.Fatalf("m3 never drained: membership %v", c.Membership())
	}
	if err := c.Crash("m2"); err != nil {
		t.Fatal(err)
	}
	if !c.Await(30*time.Second, func() bool { return c.Promotions() > 0 }) {
		t.Fatalf("m2 never failed over: membership %v", c.Membership())
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	trees := trace.Build(res.Spans)
	for span, want := range map[string]string{obs.SpanRelocationDrain: core.ReasonLeave, obs.SpanPromotion: core.ReasonFailover} {
		roots := trace.ByName(trees, span)
		if len(roots) == 0 {
			t.Errorf("no %s root", span)
		}
		for _, tree := range roots {
			if got := tree.Root.Span.Attrs["decision"]; got != want {
				t.Errorf("%s root's decision = %q, want %q", span, got, want)
			}
		}
	}
}
