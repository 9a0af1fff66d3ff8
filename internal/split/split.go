// Package split implements the split-operator host: the component sitting
// in front of the partitioned join that routes each input tuple to the
// engine owning its partition group (paper §2, after Volcano/Flux).
//
// During a state relocation the coordinator pauses the moving partitions
// here: tuples for them are buffered, a PauseMarker is pushed down the
// (FIFO) data path so the old owner can prove it drained, and after the
// remap the buffer is flushed to the new owner (paper §4.1).
package split

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
)

// DefaultBatchSize is the number of tuples accumulated per engine before a
// Data message is sent; Flush sends partial batches.
const DefaultBatchSize = 256

// maxKeptBatch caps the buffer an outbox keeps over a copying transport,
// as TCP's encScratchMax caps its encode scratch.
const maxKeptBatch = 1 << 20

// Router routes tuples by partition map and implements the split-host
// side of the relocation protocol. Route/Flush may run on any goroutine
// (every caller of Ingest); HandleControl runs on the transport handler.
// One mutex guards all state, which makes concurrent callers safe.
//
// Route encodes each tuple straight into its owner's pending wire
// buffer, so the router never keeps a reference to the caller's payload:
// a tuple's bytes are copied before Route returns.
type Router struct {
	ep          transport.Endpoint
	coordinator partition.NodeID
	pf          partition.Func
	batchSize   int
	reuse       bool // transport.CopiesOnSend: outboxes keep their buffers

	mu      sync.Mutex
	version uint64
	// dest is the partition map in dense form: the index in pending of
	// each partition's owner.
	dest    []int
	pending []outbox
	// paused marks the partitions whose tuples are parked in buffered;
	// nPaused counts them, nBuffered the parked tuples.
	paused    []bool
	nPaused   int
	buffered  map[partition.ID][]tuple.Tuple
	nBuffered int
	sent      uint64
	bufPeak   int
	sendFails int

	// addNode, when set, extends the transport's node directory on
	// MemberAddr (dynamically joined engines over TCP).
	addNode func(partition.NodeID, string)
}

// outbox is the batch under construction for one engine: the Data
// payload's wire bytes, whose leading tuple count is patched in at send.
type outbox struct {
	node partition.NodeID
	buf  []byte
	n    int
	// size is the last sent payload's length, the next fresh buffer's
	// capacity: with fixed-size tuples every buffer is exactly sized.
	size int
}

// New returns a Router over the given initial partition map snapshot.
func New(ep transport.Endpoint, coordinator partition.NodeID, pf partition.Func, owner []partition.NodeID, version uint64, batchSize int) (*Router, error) {
	if len(owner) != pf.N() {
		return nil, fmt.Errorf("split: map has %d entries for %d partitions", len(owner), pf.N())
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	r := &Router{
		ep:          ep,
		coordinator: coordinator,
		pf:          pf,
		batchSize:   batchSize,
		reuse:       transport.CopiesOnSend(ep),
		version:     version,
		dest:        make([]int, len(owner)),
		paused:      make([]bool, len(owner)),
		buffered:    make(map[partition.ID][]tuple.Tuple),
	}
	for id, node := range owner {
		r.dest[id] = r.outboxLocked(node)
	}
	return r, nil
}

// outboxLocked returns the index in pending of node's outbox, adding an
// empty one for a node seen for the first time.
func (r *Router) outboxLocked(node partition.NodeID) int {
	for i := range r.pending {
		if r.pending[i].node == node {
			return i
		}
	}
	r.pending = append(r.pending, outbox{node: node})
	return len(r.pending) - 1
}

// Route enqueues one tuple toward its partition's owner, buffering it if
// the partition is paused for relocation.
func (r *Router) Route(t tuple.Tuple) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.pf.Of(t.Key)
	if r.paused[id] {
		r.parkLocked(id, t.Clone())
		return nil
	}
	return r.enqueueLocked(id, &t)
}

// parkLocked holds t, whose payload the router must own, until its
// partition is remapped.
func (r *Router) parkLocked(id partition.ID, t tuple.Tuple) {
	r.buffered[id] = append(r.buffered[id], t)
	r.nBuffered++
	r.bufPeak = max(r.bufPeak, r.nBuffered)
}

func (r *Router) enqueueLocked(id partition.ID, t *tuple.Tuple) error {
	ob := &r.pending[r.dest[id]]
	if ob.buf == nil {
		// A fresh buffer per batch unless the transport copies on Send:
		// the in-proc transport hands Data.Payload over by reference.
		ob.buf = make([]byte, 4, max(ob.size, 4+t.EncodedSize()))
	}
	ob.buf = t.AppendTo(ob.buf)
	ob.n++
	if ob.n >= r.batchSize {
		return r.sendLocked(ob)
	}
	return nil
}

func (r *Router) sendLocked(ob *outbox) error {
	if ob.n == 0 {
		return nil
	}
	payload, n := ob.buf, ob.n
	binary.LittleEndian.PutUint32(payload, uint32(n))
	ob.buf, ob.n, ob.size = nil, 0, len(payload)
	if r.reuse && cap(payload) <= maxKeptBatch {
		ob.buf = payload[:4] // the next batch overwrites it
	}
	if err := r.ep.Send(ob.node, proto.Data{Payload: payload, MapVersion: r.version}); err != nil {
		// The owner is unreachable — typically dead before the
		// coordinator's watchdog Pause lands here. Park the batch: mark
		// its partitions paused and keep the tuples buffered, so feeding
		// continues and the eventual Remap (failover promotion or
		// relocation) releases them toward the new owner. The
		// coordinator discovers the death through its own heartbeat
		// watchdog; the router only preserves the tuples.
		rd, derr := tuple.ReadBatch(payload)
		if derr != nil {
			return fmt.Errorf("split: re-reading an unsent batch: %w", derr)
		}
		var t tuple.Tuple
		for rd.Next(&t) {
			id := r.pf.Of(t.Key)
			r.pauseLocked(id)
			r.parkLocked(id, t.Clone())
		}
		r.sendFails++
		return nil
	}
	r.sent += uint64(n)
	return nil
}

func (r *Router) pauseLocked(id partition.ID) {
	if !r.paused[id] {
		r.paused[id] = true
		r.nPaused++
	}
}

// Flush sends all partial batches.
func (r *Router) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.pending {
		if err := r.sendLocked(&r.pending[i]); err != nil {
			return err
		}
	}
	return nil
}

// Sent reports how many tuples have been sent to engines (excluding
// currently buffered ones).
func (r *Router) Sent() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent
}

// BufferedPeak reports the maximum number of tuples ever held in pause
// buffers, a measure of relocation disruption.
func (r *Router) BufferedPeak() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bufPeak
}

// PausedPartitions reports how many partitions are currently paused
// (buffering). A Pause takes effect only when the router's handler has
// processed it, which trails the coordinator's own bookkeeping; callers
// that must not feed into a dead owner's partitions await this, not the
// coordinator's watchdog flag.
func (r *Router) PausedPartitions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nPaused
}

// Version reports the current partition map version.
func (r *Router) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// Owner reports the current owner of a partition.
func (r *Router) Owner(id partition.ID) partition.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending[r.dest[id]].node
}

// HandleControl processes Pause, Remap, and MemberAddr messages,
// reporting whether the message was one of the router's.
func (r *Router) HandleControl(msg proto.Message) (bool, error) {
	//distq:handles splithost
	switch m := msg.(type) {
	case proto.Pause:
		return true, r.pause(m)
	case proto.Remap:
		return true, r.remap(m)
	case proto.MemberAddr:
		r.mu.Lock()
		fn := r.addNode
		r.mu.Unlock()
		if fn != nil {
			fn(m.Node, m.Addr)
		}
		return true, nil
	default:
		return false, nil
	}
}

// DirectoryExtender installs the callback invoked for each MemberAddr
// (e.g. transport.TCP.AddNode), letting the split host route data to
// engines that joined after startup. In-proc networks need none.
func (r *Router) DirectoryExtender(fn func(partition.NodeID, string)) {
	r.mu.Lock()
	r.addNode = fn
	r.mu.Unlock()
}

// SendFailures reports how many data batches hit an unreachable owner
// and were parked back into pause buffers awaiting a remap.
func (r *Router) SendFailures() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sendFails
}

// pause implements protocol step 3: flush what is already queued for the
// old owner (so the marker follows every earlier tuple on the FIFO data
// path), start buffering the moving partitions, then emit the marker.
func (r *Router) pause(m proto.Pause) error {
	r.mu.Lock()
	owner := r.outboxLocked(m.Owner)
	if err := r.sendLocked(&r.pending[owner]); err != nil {
		r.mu.Unlock()
		return err
	}
	for _, id := range m.Partitions {
		// A Pause names the owner the coordinator moves the partition
		// away from. One that names anybody but the partition's current
		// destination was overtaken by the Remap that ended its
		// adaptation (the network delayed or duplicated it): pausing now
		// would park the partition with no Remap left to release it.
		if int(id) < len(r.dest) && r.dest[id] == owner {
			r.pauseLocked(id)
		}
	}
	r.mu.Unlock()
	return r.ep.Send(m.Owner, proto.PauseMarker{Epoch: m.Epoch, Trace: m.Trace})
}

// remap implements protocol step 7: adopt the new map version, release
// the buffered tuples toward the new owner, and acknowledge to the
// coordinator.
func (r *Router) remap(m proto.Remap) error {
	r.mu.Lock()
	if m.Version > r.version {
		r.version = m.Version
	}
	to := r.outboxLocked(m.Owner)
	var release []tuple.Tuple
	for _, id := range m.Partitions {
		if int(id) >= len(r.dest) {
			continue
		}
		r.dest[id] = to
		if r.paused[id] {
			r.paused[id] = false
			r.nPaused--
		}
		release = append(release, r.buffered[id]...)
		delete(r.buffered, id)
	}
	r.nBuffered -= len(release)
	for i := range release {
		if err := r.enqueueLocked(r.pf.Of(release[i].Key), &release[i]); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	// Flush immediately so released tuples are not held back behind the
	// batch threshold.
	err := r.sendLocked(&r.pending[to])
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return r.ep.Send(r.coordinator, proto.RemapAck{Epoch: m.Epoch})
}
