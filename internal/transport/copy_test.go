package transport_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/transport/faulty"
	"repro/internal/vclock"
)

// TestSendCopiesPayload pins the promise behind transport.PayloadCopier
// on TCP: each payload is overwritten the moment Send returns, and the
// receiver must still see the bytes that were sent. The three frames take
// the three ways a Data frame leaves Send: coalesced in the writer until,
// within 5 ms, the next frame or the backstop flushes it, built
// in the encode scratch (larger than the 64 KiB writer), and held back on
// credit first (after the second frame overdraws a 4 KiB window, with the
// receiver parked).
func TestSendCopiesPayload(t *testing.T) {
	n := transport.NewTCP(map[partition.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	n.SetCreditWindow(4 << 10)
	n.SetCreditTimeout(10 * time.Second)
	defer n.Close()
	reg := obs.NewRegistry()
	n.Instrument("a", transport.NewMetrics(reg, "generator"))

	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	got := make(chan []byte, 3)
	parked := false
	_, err := n.Attach("b", func(_ partition.NodeID, msg proto.Message) {
		d, ok := msg.(proto.Data)
		if !ok {
			return
		}
		if !parked {
			// Hold the first frame's credit until the third Send waits.
			parked = true
			<-release
		}
		got <- bytes.Clone(d.Payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.Attach("a", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}

	sizes := []int{512, 100 << 10, 8 << 10}
	want := make([][]byte, len(sizes))
	sent := make(chan error, 1)
	go func() {
		for i, size := range sizes {
			p := make([]byte, size)
			for j := range p {
				p[j] = byte(i + j)
			}
			want[i] = bytes.Clone(p)
			if err := a.Send("b", proto.Data{Payload: p, MapVersion: uint64(i)}); err != nil {
				sent <- err
				return
			}
			for j := range p {
				p[j] = 0xAA
			}
		}
		sent <- nil
	}()

	blocked := reg.Counter("distq_generator_transport_credit_blocked_total", obs.L("peer", "b"))
	deadline := time.Now().Add(5 * time.Second)
	for blocked.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the third frame never waited on credit")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		select {
		case p := <-got:
			if !bytes.Equal(p, want[i]) {
				t.Fatalf("frame %d (%d bytes) arrived changed: the payload was read after Send returned", i, sizes[i])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
}

// TestCopiesOnSend: only TCP copies on Send. The in-process transport
// delivers payloads by reference, and the fault injector may hold a
// message past Send (delay, duplicate) even over TCP.
func TestCopiesOnSend(t *testing.T) {
	newTCP := func() transport.Network {
		return transport.NewTCP(map[partition.NodeID]string{"a": "127.0.0.1:0"})
	}
	for _, tc := range []struct {
		name string
		net  transport.Network
		want bool
	}{
		{"inproc", transport.NewInproc(), false},
		{"faulty over tcp", faulty.New(newTCP(), vclock.NewManual(), faulty.Config{}), false},
		{"tcp", newTCP(), true},
	} {
		ep, err := tc.net.Attach("a", func(partition.NodeID, proto.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if got := transport.CopiesOnSend(ep); got != tc.want {
			t.Errorf("%s: CopiesOnSend = %v, want %v", tc.name, got, tc.want)
		}
		if err := tc.net.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
