package cluster

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// What the application server cannot act on it logs: a result frame it
// cannot read, a fence it cannot acknowledge, a message not meant for it.
func TestAppServerLogsWhatItCannotActOn(t *testing.T) {
	a := NewAppServer(vclock.NewManual(), true, nil)
	net := &recNet{dead: map[partition.NodeID]bool{"e2": true}}
	if err := a.Attach(net); err != nil {
		t.Fatal(err)
	}
	for event, in := range map[string]struct {
		from partition.NodeID
		msg  proto.Message
	}{
		"result_data_error":  {"e1", proto.ResultData{Node: "e1", Phase: proto.PhaseRuntime, Payload: []byte{1, 2, 3}}},
		"drain_ack_error":    {"e2", proto.Drain{Token: 1}},
		"unexpected_message": {"e1", proto.Tick{Kind: proto.TickStats}},
	} {
		net.handle(in.from, in.msg)
		if !logged(a.Logger(), event) {
			t.Errorf("%T from %s: no %s event", in.msg, in.from, event)
		}
	}
}

func TestSplitHostLogsUnexpectedMessage(t *testing.T) {
	h, net := fenceHost(t)
	net.handle("e1", proto.Tick{Kind: proto.TickStats})
	if !logged(h.Logger(), "unexpected_message") {
		t.Fatal("a message not meant for the split host was not logged")
	}
}
