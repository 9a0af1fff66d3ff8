package experiments

import (
	"fmt"
	"testing"

	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
)

// poisoned is the TCP transport at its least forgiving. A message of a
// kind whose decode aliases the frame (proto.WireKind.AliasesBody) lends
// its byte slices to the handler only until the handler returns; then the
// read buffer goes back to a pool and the next frame lands in it
// (PROTOCOL.md "Buffer ownership"). poisoned does not wait for the next
// frame: it overwrites every such slice the moment the handler returns,
// so anything still pointing into a frame reads 0xAA from then on.
//
// Only ever over TCP: over the in-process transport those slices are the
// sender's own buffers (its retransmit queue, its resident pages), and
// poisoning them corrupts the sender, not a careless receiver.
type poisoned struct{ *transport.TCP }

func (n poisoned) Attach(node partition.NodeID, h transport.Handler) (transport.Endpoint, error) {
	return n.TCP.Attach(node, func(from partition.NodeID, msg proto.Message) {
		h(from, msg)
		var frames [][]byte
		switch m := msg.(type) {
		case proto.Data:
			frames = [][]byte{m.Payload}
		case proto.ResultData:
			frames = [][]byte{m.Payload}
		case proto.StateTransfer:
			frames = m.Images
		case proto.StateDelta:
			for _, ent := range m.Entries {
				frames = append(frames, ent.Payload)
			}
		default:
			if proto.WireKindOf(msg).AliasesBody() {
				panic(fmt.Sprintf("poisoned: %T aliases its frame and is not poisoned", msg))
			}
		}
		for _, f := range frames {
			for i := range f {
				f[i] = 0xAA
			}
		}
	})
}

// TestChaosTCPPoisonedRelocation is the ping-pong relocation run of
// TestChaosTCPNativeExact with every frame poisoned behind its handler:
// tuple batches at the engines, group images at the relocation receiver
// and result batches at the application server are all gone the moment
// they were handled, under seeded control-plane faults, and the result
// set is still the fault-free baseline's.
func TestChaosTCPPoisonedRelocation(t *testing.T) {
	// The join runs as one shard, on the handler goroutine.
	t.Run("shards=1", func(t *testing.T) {
		cc := ChaosConfig{Faults: membershipFaults(11)}
		res, err := runChaosOver(poisoned{chaosTCP()}, cc)
		if err != nil {
			t.Fatalf("poisoned chaos run hung or failed: %v", err)
		}
		assertExact(t, res)
		// A receiver that reads its images after they were recycled fails
		// to decode them, and the relocation is rolled back: exact, but it
		// never completes.
		if res.Relocations == 0 {
			t.Fatal("no relocation completed: no group image was installed from a frame poisoned behind its handler")
		}
	})
}

// TestChaosTCPPoisonedFailover is TestChaosPromoteExact's script over
// poisoned TCP: the follower's standby is built from delta frames that
// are overwritten behind every handler, then promoted, and the run's
// result set must match the fault-free baseline.
func TestChaosTCPPoisonedFailover(t *testing.T) {
	res, err := runChaosPromoteOver(poisoned{chaosTCP()}, membershipFaults(17))
	if err != nil {
		t.Fatalf("poisoned promote run hung or failed: %v", err)
	}
	assertMembershipExact(t, res)
	if res.Promotions == 0 {
		t.Fatal("no promotion completed")
	}
}
