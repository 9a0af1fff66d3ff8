// Package engine exercises every aliasretain shape: the pre-PR-4
// shipped bug (a retained scratch Seqs buffer), the legal Clone and
// value-copy patterns, shared-slab decoding, batch-cursor views, pooled
// frames, and retention hidden behind an in-module helper.
package engine

import (
	"sync"

	"repro/internal/tuple"
)

// Engine retains state across emit callbacks.
type Engine struct {
	last     tuple.Result
	history  []tuple.Result
	byKey    map[uint64]tuple.Result
	seqCache [][]uint64
	payload  []byte
	slab     []byte
	results  chan tuple.Result
	parked   []tuple.Tuple
	work     chan tuple.Tuple
	runs     chan []byte
}

// retainScratch is the PR-4 shipped-bug shape: the emitted Result is
// stored as-is, so its Seqs still aliases the producer's scratch
// buffer and is overwritten by the next match.
func (e *Engine) retainScratch(r tuple.Result) {
	e.last = r // want `scratch tuple\.Result parameter "r" is stored without Clone\(\)`
}

// retainSeqsSlice retains just the scratch backing, not the struct.
func (e *Engine) retainSeqsSlice(r tuple.Result) {
	e.seqCache = append(e.seqCache, r.Seqs) // want `scratch tuple\.Result parameter "r" is stored without Clone\(\)`
}

// retainViaAlias hides the retention behind a local alias.
func (e *Engine) retainViaAlias(r tuple.Result) {
	tmp := r
	e.byKey[r.Key] = tmp // want `scratch tuple\.Result parameter "r" is stored without Clone\(\)`
}

// retainClone is the legal pattern: Clone detaches the backing.
func (e *Engine) retainClone(r tuple.Result) {
	e.last = r.Clone()
	e.history = append(e.history, r.Clone())
}

// consumeByValue only reads value-typed data out of the scratch buffer.
func (e *Engine) consumeByValue(r tuple.Result) uint64 {
	var sum uint64
	for _, s := range r.Seqs {
		sum += s
	}
	return sum + r.Key
}

// encodeCopy appends a byte-level copy: AppendTo's summary shows the
// receiver neither retained nor flowing into the result.
func (e *Engine) encodeCopy(r tuple.Result) {
	e.payload = r.AppendTo(e.payload)
}

// manualDeepCopy detaches the backing without Clone: appending value
// elements into a fresh slice carries no aliases.
func (e *Engine) manualDeepCopy(r tuple.Result) {
	e.seqCache = append(e.seqCache, append([]uint64(nil), r.Seqs...))
}

// sendScratch leaks the scratch buffer through a channel.
func (e *Engine) sendScratch(r tuple.Result) {
	e.results <- r // want `scratch tuple\.Result parameter "r" is sent on a channel without Clone\(\)`
}

// goCapture leaks the scratch buffer into a goroutine that runs after
// the callback returns.
func (e *Engine) goCapture(r tuple.Result) {
	go func() {
		e.last = r // want `scratch tuple\.Result parameter "r" is captured by a goroutine without Clone\(\)`
	}()
}

// hold is an in-module helper that retains its argument; callers are
// flagged through its computed summary.
func (e *Engine) hold(r tuple.Result) {
	e.last = r // want `scratch tuple\.Result parameter "r" is stored without Clone\(\)`
}

// retainViaHelper passes scratch to a retaining helper.
func (e *Engine) retainViaHelper(r tuple.Result) {
	e.hold(r) // want `scratch tuple\.Result parameter "r" is retained by the callee without Clone\(\)`
}

// emitCallback mirrors the EmitFunc literal wiring: the closure's own
// parameter is the scratch value.
func (e *Engine) emitCallback() func(tuple.Result) {
	return func(r tuple.Result) {
		e.last = r // want `scratch tuple\.Result parameter "r" is stored without Clone\(\)`
	}
}

// decodeShared decodes into the engine's long-lived slab: every decoded
// payload aliases memory that the next batch reuses.
func (e *Engine) decodeShared(buf []byte) (tuple.Tuple, error) {
	t, _, grown, err := tuple.DecodeSlab(buf, e.slab)
	e.slab = grown
	return t, err // want `tuple value decoded into a shared slab is returned without Clone\(\)`
}

// decodeFresh is the legal batch-aliasing pattern: a function-local
// slab lives exactly as long as the tuples decoded into it.
func decodeFresh(buf []byte) ([]tuple.Tuple, error) {
	slab := make([]byte, 0, len(buf))
	var out []tuple.Tuple
	for len(buf) > 0 {
		t, used, grown, err := tuple.DecodeSlab(buf, slab)
		if err != nil {
			return nil, err
		}
		slab = grown
		out = append(out, t)
		buf = buf[used:]
	}
	return out, nil
}

// keepView parks what a batch cursor yields: the view's payload is the
// frame buffer, which the transport recycles after the handler.
func (e *Engine) keepView(r tuple.BatchReader) {
	var t tuple.Tuple
	for r.Next(&t) {
		e.parked = append(e.parked, t) // want `tuple view "t" yielded by a batch cursor is stored without Clone\(\)`
	}
}

// sendView leaks a view to another goroutine.
func (e *Engine) sendView(r tuple.BatchReader) {
	var t tuple.Tuple
	for r.Next(&t) {
		e.work <- t // want `tuple view "t" yielded by a batch cursor is sent on a channel without Clone\(\)`
	}
}

// keepViewPayload retains just the aliasing slice.
func (e *Engine) keepViewPayload(r tuple.BatchReader) {
	var t tuple.Tuple
	if r.Next(&t) {
		e.payload = t.Payload // want `tuple view "t" yielded by a batch cursor is stored without Clone\(\)`
	}
}

// onData is the data path's shape: each view is re-encoded for the
// replication buffer, handed to the join by value (which copies the
// payload into its pages), or re-encoded into a run for a shard worker.
func (e *Engine) onData(r tuple.BatchReader) {
	run := make([]byte, 0, 64)
	var t tuple.Tuple
	for r.Next(&t) {
		e.payload = t.AppendTo(e.payload)
		e.process(t)
		run = t.AppendTo(run)
	}
	e.runs <- run
}

// process copies the payload bytes it keeps, like the join's pages.
func (e *Engine) process(t tuple.Tuple) {
	copy(e.slab, t.Payload)
	e.last.Key = t.Key
}

// parkClones is the legal way to keep what a cursor yields.
func (e *Engine) parkClones(r tuple.BatchReader) []tuple.Tuple {
	var slab []byte
	var out []tuple.Tuple
	var t tuple.Tuple
	for r.Next(&t) {
		e.parked = append(e.parked, t.Clone())
		var own tuple.Tuple
		own, slab = t.CloneInto(slab)
		out = append(out, own)
	}
	return out
}

// framePool mirrors the TCP transport's frame-buffer recycler.
var framePool = sync.Pool{New: func() interface{} { return []byte(nil) }}

// keepPooled stores a pooled buffer past the call — after Put, the
// next Get hands the same backing to someone else.
func (e *Engine) keepPooled() {
	buf := framePool.Get()
	e.payload = buf.([]byte) // want `pooled buffer is stored without Clone\(\)`
	framePool.Put(buf)
}

// usePooled stays inside the call: encode, flush, return to pool.
func (e *Engine) usePooled(flush func([]byte)) {
	buf := framePool.Get().([]byte)
	flush(buf)
	framePool.Put(buf)
}

// deferPooled returns the buffer through a defer: handing a pooled
// value back to its pool ends its lifecycle, it is not a retention.
func (e *Engine) deferPooled(flush func([]byte)) {
	buf := framePool.Get().([]byte)
	defer framePool.Put(buf)
	flush(buf)
}

// waived documents a deliberate ownership transfer.
func (e *Engine) waived(r tuple.Result) {
	e.last = r //distqlint:allow aliasretain: producer hands over ownership at end of stream
}
