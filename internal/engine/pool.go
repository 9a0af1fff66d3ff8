package engine

import (
	"strconv"
	"sync"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// shardWorkBuffer is the per-worker channel depth: enough to keep a
// worker fed across consecutive batches, small enough that the handler
// backpressures instead of queueing unbounded state.
const shardWorkBuffer = 4

// shardItem is one unit of work for a shard worker: either a run of n
// same-shard tuples, encoded back to back (batch order preserved, so a
// partition group's tuples stay FIFO), or a barrier, acknowledged by
// closing ack once every item enqueued before it has been fully
// processed.
type shardItem struct {
	run []byte
	n   int
	ack chan struct{}
}

// shardWorker drives one join shard from a dedicated goroutine.
type shardWorker struct {
	shard *join.Shard
	work  chan shardItem
	// err is the first Process error; written only by the worker
	// goroutine and read by the handler after a barrier ack, which
	// orders the accesses.
	err error
}

// shardPool is the bounded worker pool of the engine's parallel join
// path: shard i of the operator is driven exclusively by worker i, and
// the handler's control messages quiesce every worker before touching
// operator state (see Engine.Handle). Dispatch and quiesce run only on
// the handler goroutine; stop/interrupt may race with them from any
// goroutine (Crash), which every channel operation guards with a select
// on the stop fence.
type shardPool struct {
	e       *Engine
	workers []*shardWorker
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	// runs holds the batch being bucketed, one item per shard; touched
	// only by the serial handler goroutine.
	runs []shardItem
}

// newShardPool builds the pool over the engine's operator shards; start
// launches the workers.
func newShardPool(e *Engine) *shardPool {
	n := e.op.NumShards()
	p := &shardPool{
		e:       e,
		workers: make([]*shardWorker, n),
		stop:    make(chan struct{}),
		runs:    make([]shardItem, n),
	}
	for i := range p.workers {
		p.workers[i] = &shardWorker{shard: e.op.Shard(i), work: make(chan shardItem, shardWorkBuffer)}
	}
	return p
}

// start launches one goroutine per shard.
func (p *shardPool) start() {
	for i, w := range p.workers {
		p.wg.Add(1)
		go p.run(i, w)
	}
}

// run is one worker's loop. The worker owns its shard exclusively, so
// Process needs no locking; result emission synchronizes inside the
// engine's emit callback.
func (p *shardPool) run(idx int, w *shardWorker) {
	defer p.wg.Done()
	e := p.e
	label := strconv.Itoa(idx)
	span := e.tracer.Start(obs.SpanJoinShard, string(e.cfg.Node), e.clock.Now())
	span.SetAttr("shard", label)
	tuplesCtr := e.reg.Counter("distq_engine_shard_tuples_total", obs.L("shard", label))
	var tuples, results uint64
	for {
		select {
		case <-p.stop:
			// Crash/stop fence: acknowledge queued barriers so a
			// concurrent quiesce cannot block, discard queued tuples
			// (crash semantics; an orderly shutdown quiesced first).
			p.drainAcks(w)
			span.SetAttr("tuples", strconv.FormatUint(tuples, 10))
			span.SetAttr("results", strconv.FormatUint(results, 10))
			span.End(e.clock.Now())
			return
		case item := <-w.work:
			if item.ack != nil {
				close(item.ack)
				continue
			}
			r := tuple.TrustedRun(item.run, item.n)
			tuples += uint64(item.n)
			tuplesCtr.Add(float64(item.n))
			var t tuple.Tuple
			for r.Next(&t) {
				n, err := w.shard.Process(t)
				if err != nil && w.err == nil {
					w.err = err
				}
				results += n
			}
		}
	}
}

// drainAcks releases every barrier still queued at the stop fence.
func (p *shardPool) drainAcks(w *shardWorker) {
	for {
		select {
		case item := <-w.work:
			if item.ack != nil {
				close(item.ack)
			}
		default:
			return
		}
	}
}

// add appends t, re-encoded, to its shard's run (one memmove of the
// tuple's bytes; t may be a view). batch is the encoded size of the batch
// t came from: a shard's first tuple sizes its run at an even share plus a
// quarter, and append absorbs skew beyond that. Every batch gets fresh
// runs because the workers read the last ones while the handler fills the
// next.
func (p *shardPool) add(t *tuple.Tuple, batch int) {
	run := &p.runs[p.e.op.ShardIndex(t.Key)]
	if run.run == nil {
		share := batch / len(p.runs)
		run.run = make([]byte, 0, share+share/4+t.EncodedSize())
	}
	run.run = t.AppendTo(run.run)
	run.n++
}

// dispatch hands each non-empty run to its worker. It does not wait for
// processing: data pipelines across batches until the next
// control-message barrier.
func (p *shardPool) dispatch() {
	for i, run := range p.runs {
		if run.n > 0 {
			p.send(p.workers[i], run)
		}
		p.runs[i] = shardItem{}
	}
}

// send enqueues one item, abandoning it if the pool is stopping.
func (p *shardPool) send(w *shardWorker, item shardItem) {
	select {
	case w.work <- item:
	case <-p.stop:
	}
}

// quiesce fences every worker: when it returns, all tuples dispatched
// before it are fully processed and no worker touches operator state
// until the handler dispatches again — the consistent single-threaded
// view every control message requires. It surfaces (and clears) the
// first worker error, by shard order for determinism.
func (p *shardPool) quiesce() error {
	acks := make([]chan struct{}, 0, len(p.workers))
	for _, w := range p.workers {
		ack := make(chan struct{})
		select {
		case w.work <- shardItem{ack: ack}:
			acks = append(acks, ack)
		case <-p.stop:
		}
	}
	for _, ack := range acks {
		select {
		case <-ack:
		case <-p.stop:
			// Crashed mid-quiesce: consistency no longer matters, and
			// worker error fields are unsynchronized now.
			return nil
		}
	}
	var err error
	for _, w := range p.workers {
		if w.err != nil {
			if err == nil {
				err = w.err
			}
			w.err = nil
		}
	}
	return err
}

// close stops the workers and waits for them to finish their spans; the
// caller quiesces first when pending work must still be applied.
func (p *shardPool) close() {
	p.interrupt()
	p.wg.Wait()
}

// interrupt stops the workers without waiting (crash path; callable
// from any goroutine).
func (p *shardPool) interrupt() {
	p.stopped.Do(func() { close(p.stop) })
}
