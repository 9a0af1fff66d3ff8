package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/benchmark/tracenet"
	"repro/distq"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// distqCluster is a streaming distq.Cluster over its own TCP network.
type distqCluster struct {
	c   *distq.Cluster
	net transport.Network
}

func (e *env) newDistq(onResult func(distq.Phase, distq.Result)) (*distqCluster, error) {
	net := e.network()
	c, err := distq.NewCluster(distq.Options{
		Engines:            engines,
		Inputs:             streams,
		Partitions:         partitions,
		OnResult:           onResult,
		JoinParallelism:    1,
		TimeScale:          timeScale,
		StatsInterval:      statsInterval,
		SpillCheckInterval: spillCheckInterval,
		LBInterval:         lbInterval,
		Network:            net,
	})
	if err != nil {
		net.Close()
		return nil, err
	}
	return &distqCluster{c: c, net: net}, nil
}

func (d *distqCluster) close() {
	d.c.Close()
	d.net.Close()
}

// gen runs fn as a span of the generator node when the run is traced,
// so the sends it causes are attributed to it.
func (e *env) gen(name string, fn func() error) error {
	if e.rec == nil {
		return fn()
	}
	return e.rec.Call(cluster.GeneratorNode, name, fn)
}

// ingestChunk bounds how many Ingest calls one generator span covers:
// a span per tuple would cost more than the call it times.
const ingestChunk = 4096

// floodWarmup is how many flood passes run before the measured ones.
// The first two passes pay 1.3–3 s of system time faulting in a
// gigabyte of fresh heap; from the third on the process reuses it.
const floodWarmup = 2

// runFloodCount: closed loop, count-only. Credit backpressure is the
// only brake. Passes of floodTuples each on a fresh cluster: floodWarmup
// unmeasured ones, then measured ones until --seconds have been
// measured. Single passes of identical work vary ±15 % in wall time on
// the shared 2-core box, and the host's noise only ever slows a pass:
// over three ten-run sets the fastest pass of a run spread 5–10 %
// between runs where the median pass spread 13–20 %. So the fastest
// pass is reported, and for CPU the cheapest.
func runFloodCount(e *env) (*outcome, error) {
	o := newOutcome()
	cfg := workloadConfig(e.seed, 3, 30000, time.Millisecond)
	payload := make([]byte, payloadBytes)
	type ready struct {
		in *input
		c  *distqCluster
	}
	r, err := timedSetup(e, func() (ready, error) {
		in, err := generate(cfg, e.floodTuples/streams)
		if err != nil {
			return ready{}, err
		}
		c, err := e.newDistq(nil)
		return ready{in, c}, err
	}, func(r ready) { r.c.close() })
	if err != nil {
		return nil, err
	}
	in := r.in
	traced := e.rec != nil

	var tps, cpuUs []float64
	var last usage
	for pass := 0; pass < floodWarmup || o.use.wall.Seconds() < e.seconds; pass++ {
		c := r.c
		if pass > 0 {
			// Level the field: no pass pays for its predecessor's heap.
			runtime.GC()
			if traced {
				e.rec = tracenet.NewRecorder()
			}
			if c, err = e.newDistq(nil); err != nil {
				return nil, err
			}
		}
		m := startMeter()
		var ingestErrs int64
		for lo := 0; lo < len(in.keys); lo += ingestChunk {
			hi := min(lo+ingestChunk, len(in.keys))
			_ = e.gen("ingest", func() error {
				for i := lo; i < hi; i++ {
					if err := c.c.Ingest(i%streams, in.keys[i], payload); err != nil {
						ingestErrs++
					}
				}
				return nil
			})
		}
		if ingestErrs > 0 {
			o.fail(ingestErrs, "pass %d: %d Ingest calls failed", pass, ingestErrs)
		}
		if err := e.gen("flush", c.c.Flush); err != nil {
			o.fail(1, "pass %d: flush: %v", pass, err)
		}
		if err := c.c.Drain(); err != nil {
			o.fail(1, "pass %d: drain fence: %v", pass, err)
		}
		last = m.stop(len(in.keys))
		snap := c.c.Snapshot()
		if pass == floodWarmup {
			o.values["proc.live_heap_mb"] = liveHeapMB()
		}
		c.close()

		n := float64(len(in.keys))
		o.attempted += int64(len(in.keys))
		if pass >= floodWarmup {
			o.use = o.use.add(last)
			tps = append(tps, last.tps())
			cpuUs = append(cpuUs, last.cpuUsPerTuple())
		}
		if snap.Output != in.oracle {
			o.fail(absDiff(snap.Output, in.oracle), "pass %d: %d results, oracle %d", pass, snap.Output, in.oracle)
		}
		o.values["runtime_results_per_tuple"] = float64(snap.Output) / n
		o.values["runtime_result_share"] = share(snap.Output, in.oracle)
	}
	o.values["throughput_tps"] = slices.Max(tps)
	o.values["cpu_us_per_tuple"] = slices.Min(cpuUs)
	o.note("flood_count: %d warm-up + %d measured passes of %d tuples, fastest pass reported (median %.0f tuples/s, %.4f us CPU per tuple); pass tuples/s %s",
		floodWarmup, len(tps), len(in.keys), median(tps), median(cpuUs), fmtList(tps))
	if traced {
		o.trace = &traceInput{rec: e.rec, wall: last.wall, tuples: int64(len(in.keys)), emit: emitCount}
	}
	return o, nil
}

// pacedRate is the open-loop input rate of paced_materialize, and
// paceQuantum the schedule's granularity.
const (
	pacedRate   = 60000
	paceQuantum = time.Millisecond
)

// runPacedMaterialize: open loop at pacedRate from a 1 ms-quantum
// schedule, every result shipped to the application server. Latency is
// timed from each tuple's due time, so a stall is charged to every
// tuple it delays, not only to the one that hit it.
func runPacedMaterialize(e *env) (*outcome, error) {
	o := newOutcome()
	cfg := workloadConfig(e.seed, 1, 300000, time.Millisecond)
	n := int(e.seconds*pacedRate) / streams * streams
	payload := make([]byte, payloadBytes)

	// The callback runs on the application server's handler goroutine
	// only. Its plain variables are read after awaitResults has seen the
	// last increment of the atomic counter, which orders them.
	var (
		in       *input
		start    time.Time
		lat      *windows
		arrived  atomic.Uint64
		badKeys  int64
		cleanups uint64
	)
	onResult := func(phase distq.Phase, r distq.Result) {
		at := vclock.WallNow()
		defer arrived.Add(1)
		if phase != distq.PhaseRuntime {
			cleanups++
		}
		latest := 0
		for s, seq := range r.Seqs {
			i := int(seq)*streams + s
			if i >= len(in.keys) || in.keys[i] != r.Key {
				badKeys++
				return
			}
			latest = max(latest, i)
		}
		lat.add(at, at.Sub(dueAt(start, latest, pacedRate)))
	}
	type ready struct {
		in *input
		c  *distqCluster
	}
	r, err := timedSetup(e, func() (ready, error) {
		in, err := generate(cfg, n/streams)
		if err != nil {
			return ready{}, err
		}
		c, err := e.newDistq(onResult)
		return ready{in, c}, err
	}, func(r ready) { r.c.close() })
	if err != nil {
		return nil, err
	}
	in = r.in
	c := r.c
	defer c.close()

	var late hist
	m := startMeter()
	start = m.at
	lat = newWindows(start, e.seconds)
	var ingestErrs int64
	quanta, overruns := pace(start, pacedRate, n, &late, func(lo, hi int) error {
		return e.gen("ingest", func() error {
			for i := lo; i < hi; i++ {
				if err := c.c.Ingest(i%streams, in.keys[i], payload); err != nil {
					ingestErrs++
				}
			}
			return c.c.Flush()
		})
	})
	fed := vclock.WallSince(start)
	if err := c.c.Drain(); err != nil {
		o.fail(1, "drain fence: %v", err)
	}
	o.use = m.stop(n)
	o.values["proc.live_heap_mb"] = liveHeapMB()
	// Over TCP Drain's application-server fence is not one: it travels
	// gen→app while results travel engine→app, and FIFO holds per pair
	// only, so a ResultData frame already on the wire can be enqueued
	// after the fence. The results are not lost, only late; wait for them
	// and say how many the fence missed (a finding for a later issue).
	fenced := arrived.Load()
	results := awaitResults(&arrived, in.oracle)
	if results > fenced {
		o.note("paced_materialize: %d results arrived after Drain returned", results-fenced)
	}
	snap := c.c.Snapshot()

	o.attempted = int64(n)
	if ingestErrs > 0 {
		o.fail(ingestErrs, "%d Ingest calls failed", ingestErrs)
	}
	if results != in.oracle {
		o.fail(absDiff(results, in.oracle), "%d result callbacks, oracle %d", results, in.oracle)
	}
	if snap.Duplicates != 0 {
		o.fail(int64(snap.Duplicates), "%d duplicate results", snap.Duplicates)
	}
	if badKeys != 0 {
		o.fail(badKeys, "%d results whose member tuples do not carry the result's key", badKeys)
	}
	o.values["throughput_tps"] = o.use.tps()
	o.values["cpu_us_per_tuple"] = o.use.cpuUsPerTuple()
	o.values["runtime_results_per_tuple"] = float64(results-cleanups) / float64(n)
	o.values["runtime_result_share"] = share(results-cleanups, in.oracle)
	// A window counts once it holds a tenth of a second's results.
	minSamples := max(1, in.oracle/uint64(math.Ceil(e.seconds))/10)
	p50, used, samples := lat.medianQuantile(0.50, minSamples)
	p99, _, _ := lat.medianQuantile(0.99, minSamples)
	o.values["result_latency_p50_ms"] = p50
	o.values["result_latency_p99_ms"] = p99
	o.values["gen.late_p99_ms"] = late.quantile(0.99) / 1e6
	o.values["gen.late_p50_ms"] = late.quantile(0.50) / 1e6
	o.values["gen.feed_overrun_share"] = float64(overruns) / float64(quanta)
	o.note("paced_materialize: %d tuples at %d/s, %d results; latency over %d one-second windows, %d samples (about %d per window, %d beyond each p99)",
		n, pacedRate, results, used, samples, samples/uint64(max(used, 1)), samples/uint64(max(used, 1))/100)
	o.note("paced_materialize: generator late p50 %.3f ms, p99 %.3f ms; %d of %d quanta overrun; p50 %.2f ms, p99 %.2f ms",
		o.values["gen.late_p50_ms"], o.values["gen.late_p99_ms"], overruns, quanta, p50, p99)
	if e.rec != nil {
		o.trace = &traceInput{rec: e.rec, wall: fed, tuples: int64(n), results: results, emit: emitMaterialize}
	}
	return o, nil
}

// awaitResults waits, for at most resultGrace, until want results have
// arrived, and returns how many have.
func awaitResults(arrived *atomic.Uint64, want uint64) uint64 {
	guard := vclock.WallTimeout(resultGrace)
	for arrived.Load() < want {
		select {
		case <-guard:
			return arrived.Load()
		default:
			vclock.WallSleep(time.Millisecond)
		}
	}
	return arrived.Load()
}

// resultGrace bounds the wait for results the fence did not cover.
const resultGrace = 5 * time.Second

// dueAt is when tuple i of an open loop at rate tuples/s is due.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// pace offers tuples [0,n) on an open-loop schedule: every paceQuantum
// it offers whatever is due by then, without waiting for the system.
// It records how late each tuple was offered, and returns the number of
// quanta and how many of them the generator overran by a whole quantum.
func pace(start time.Time, rate float64, n int, late *hist, offer func(lo, hi int) error) (quanta, overruns int) {
	next := 0
	for k := 1; next < n; k++ {
		tick := start.Add(time.Duration(k) * paceQuantum)
		now := vclock.WallNow()
		if wait := tick.Sub(now); wait > 0 {
			vclock.WallSleep(wait)
			now = vclock.WallNow()
		}
		if now.Sub(tick) > paceQuantum {
			overruns++
		}
		quanta++
		due := min(n, int(now.Sub(start).Seconds()*rate))
		if due <= next {
			continue
		}
		for i := next; i < due; i++ {
			late.add(now.Sub(dueAt(start, i, rate)))
		}
		// Ingest errors are counted by the caller; a Flush error means
		// the router could not park a batch, which no workload provokes.
		_ = offer(next, due)
		next = due
	}
	return quanta, overruns
}

// harnessConfig is the experiment-harness configuration the two
// adaptation workloads share.
func (e *env) harnessConfig(joinRate, tupleRange int, rate float64, net transport.Network) cluster.Config {
	// Each of the three streams emits one tuple per InterArrival of
	// virtual time; timeScale virtual seconds pass per wall second.
	interArrival := time.Duration(streams * timeScale / rate * float64(time.Second))
	return cluster.Config{
		Engines:            engines,
		Workload:           workloadConfig(e.seed, joinRate, tupleRange, interArrival),
		Scale:              timeScale,
		Duration:           virtual(e.seconds),
		JoinParallelism:    1,
		StatsInterval:      statsInterval,
		SpillCheckInterval: spillCheckInterval,
		LBInterval:         lbInterval,
		Network:            net,
	}
}

// virtual converts wall seconds to the virtual duration they span.
func virtual(wallSeconds float64) time.Duration {
	return time.Duration(wallSeconds * timeScale * float64(time.Second))
}

// perStreamCount is how many tuples the harness feeder emits per stream
// over a virtual duration: one at 0, InterArrival, 2·InterArrival, ...
func perStreamCount(d, interArrival time.Duration) int {
	return int((d + interArrival - 1) / interArrival)
}

// harness is a wired experiment cluster with the input it will be fed.
type harness struct {
	c   *cluster.Cluster
	net transport.Network
	in  *input
}

func (h *harness) close() {
	h.c.Close()
	h.net.Close()
}

// newHarness builds the oracle for the feed the cluster will generate
// from cfg.Workload (a twin generator replays it) and starts the
// cluster.
func (e *env) newHarness(cfg cluster.Config, feed time.Duration) (*harness, error) {
	in, err := generate(cfg.Workload, perStreamCount(feed, cfg.Workload.InterArrival))
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(cfg)
	if err != nil {
		cfg.Network.Close()
		return nil, err
	}
	if err := c.Start(); err != nil {
		c.Close()
		cfg.Network.Close()
		return nil, err
	}
	return &harness{c: c, net: cfg.Network, in: in}, nil
}

const constrainedRate = 100000

// runConstrainedAdapt: the paper's scenario (Figure 12's shape). The
// cluster's memory holds two thirds of the state and placement starts
// 4:1:1, so the state that flood_count only appends to is here
// extracted, serialised, moved, demoted to disk and finally merged.
// Lazy-disk, because active-disk with uncapped forced spills gave
// run-time output varying 3× between identical runs.
func runConstrainedAdapt(e *env) (*outcome, error) {
	o := newOutcome()
	feed := virtual(e.seconds)
	dir, err := e.storeDir("constrained_adapt")
	if err != nil {
		return nil, err
	}
	// A run leaves some 80 MB of segments behind; a hundred runs in one
	// checkout must not fill its disk.
	defer os.RemoveAll(dir)
	h, err := timedSetup(e, func() (*harness, error) {
		cfg := e.harnessConfig(1, 30000, constrainedRate, e.network())
		n := perStreamCount(feed, cfg.Workload.InterArrival) * streams
		projected := int64(n) * (&tuple.Tuple{Payload: make([]byte, payloadBytes)}).MemSize()
		cfg.InitialWeights = []int{4, 1, 1}
		cfg.Strategy = core.NewLazyDisk(core.RelocationConfig{Threshold: relocTheta, MinGap: relocMinGap})
		cfg.LocalSpill = true
		cfg.Spill = core.SpillConfig{MemThreshold: projected * 22 / 100, Fraction: 0.3}
		cfg.EnumerateResults = true
		cfg.StoreDir = dir
		return e.newHarness(cfg, feed)
	}, (*harness).close)
	if err != nil {
		return nil, err
	}
	defer h.close()
	c, n := h.c, len(h.in.keys)

	m := startMeter()
	if err := e.gen("feed", func() error { return c.Feed(feed) }); err != nil {
		o.fail(int64(n), "feed: %v", err)
	}
	fed := vclock.WallSince(m.at)
	if err := c.Quiesce(); err != nil {
		o.fail(1, "quiesce fence: %v", err)
	}
	if err := c.Drain(); err != nil {
		o.fail(1, "drain fence: %v", err)
	}
	o.use = m.stop(n)
	o.values["proc.live_heap_mb"] = liveHeapMB()
	t1 := vclock.WallNow()
	if err := c.RunCleanup(); err != nil {
		o.fail(1, "cleanup: %v", err)
	}
	cleanup := vclock.WallSince(t1)
	res, err := c.Finish()
	if err != nil {
		return nil, err
	}

	o.attempted = int64(n)
	if int(res.Generated) != n {
		o.fail(absDiff(res.Generated, uint64(n)), "fed %d tuples, schedule has %d", res.Generated, n)
	}
	if got := res.RuntimeOutput + res.Cleanup.Results; got != h.in.oracle {
		o.fail(absDiff(got, h.in.oracle), "run-time %d + cleanup %d = %d results, oracle %d",
			res.RuntimeOutput, res.Cleanup.Results, got, h.in.oracle)
	}
	if res.UnresolvedRelocations > 0 {
		o.fail(int64(res.UnresolvedRelocations), "%d relocations unresolved", res.UnresolvedRelocations)
	}
	o.values["throughput_tps"] = o.use.tps()
	o.values["cpu_us_per_tuple"] = o.use.cpuUsPerTuple()
	o.values["runtime_results_per_tuple"] = float64(res.RuntimeOutput) / float64(n)
	o.values["runtime_result_share"] = share(res.RuntimeOutput, h.in.oracle)
	o.values["cleanup_s"] = cleanup.Seconds()
	o.values["gen.feed_overrun_share"] = fed.Seconds()/e.seconds - 1
	harnessLayerValues(o, res)
	o.note("constrained_adapt: %d tuples at %d/s, %d relocations (%d aborted), %.0f spills of %.1f MB, run-time %d + cleanup %d results",
		n, constrainedRate, res.Relocations, res.AbortedRelocations, o.values["spill.count"], o.values["spill.mb_total"], res.RuntimeOutput, res.Cleanup.Results)
	if e.rec != nil {
		o.trace = &traceInput{rec: e.rec, wall: fed, tuples: int64(n), results: res.RuntimeOutput, emit: emitEnumerate, harness: true}
	}
	return o, nil
}

// harnessLayerValues records the layer counts the harness result
// carries directly.
func harnessLayerValues(o *outcome, res *cluster.Result) {
	var spills int
	var spilled int64
	for _, node := range engines {
		spills += res.LocalSpills[node]
		spilled += res.SpilledBytes[node]
	}
	o.values["split.buffered_peak"] = float64(res.BufferedPeak)
	o.values["coordinator.relocations"] = float64(res.Relocations)
	o.values["spill.count"] = float64(spills)
	o.values["spill.mb_total"] = float64(spilled) / 1e6
	cl := res.Cleanup
	o.values["cleanup.engine_s_max"] = cl.MaxElapsed.Seconds()
	o.values["cleanup.engine_s_sum"] = cl.TotalElapsed.Seconds()
	o.values["cleanup.tuples"] = float64(cl.Tuples)
	o.values["cleanup.results"] = float64(cl.Results)
	var segments, busiest int
	for _, done := range cl.PerNode {
		segments += done.Segments
		busiest = max(busiest, done.Tuples)
	}
	o.values["cleanup.segments"] = float64(segments)
	if cl.Tuples > 0 {
		o.values["cleanup.balance"] = float64(busiest) / float64(cl.Tuples)
	}
}

const (
	failoverRate = 50000
	// failoverPhase is the share of --seconds each of the two fed
	// phases takes; the rest is left for settling and the failover.
	failoverPhase = 0.4
	fenceWatchdog = 30 * time.Second
)

// runReplicatedFailover: every ingested tuple is also written to a
// follower; after the first phase the replicas settle, e2 is killed,
// its groups are promoted on their followers, and the second phase is
// fed immediately, through the post-promotion re-seed. At 100k tuples/s
// that re-seed took 93 CPU-seconds for a 10 s phase and the drain fence
// timed out; at 50k it completes.
func runReplicatedFailover(e *env) (*outcome, error) {
	o := newOutcome()
	phase := virtual(e.seconds * failoverPhase)
	h, err := timedSetup(e, func() (*harness, error) {
		cfg := e.harnessConfig(1, 300000, failoverRate, e.network())
		cfg.Strategy = core.NoAdapt{}
		cfg.Materialize = true
		cfg.Replicate = true
		cfg.HeartbeatTimeout = 60 * time.Second
		cfg.RelocTimeout = 30 * time.Second
		return e.newHarness(cfg, 2*phase)
	}, (*harness).close)
	if err != nil {
		return nil, err
	}
	defer h.close()
	c, n := h.c, len(h.in.keys)
	const victim = "e2"

	m := startMeter()
	t0 := m.at
	if err := e.gen("feed", func() error { return c.Feed(phase) }); err != nil {
		o.fail(int64(n/2), "feed phase 1: %v", err)
	}
	if err := c.Drain(); err != nil {
		o.fail(1, "drain fence after phase 1: %v", err)
	}
	use1 := m.stop(n / 2)

	t1 := vclock.WallNow()
	if !c.Await(fenceWatchdog, c.ReplicationSettled) {
		o.fail(1, "replication never settled (lag %d bytes)", c.ReplicationLagTotal())
	}
	settle := vclock.WallSince(t1)
	if err := c.Crash(victim); err != nil {
		return nil, err
	}
	t2 := vclock.WallNow()
	if !c.Await(fenceWatchdog, func() bool { return c.Promotions() >= 1 && c.PartitionsPaused() == 0 }) {
		o.fail(1, "promotion never completed (promotions %d, paused %d)", c.Promotions(), c.PartitionsPaused())
	}
	failover := vclock.WallSince(t2)

	m = startMeter()
	if err := e.gen("feed", func() error { return c.Feed(phase) }); err != nil {
		o.fail(int64(n/2), "feed phase 2: %v", err)
	}
	fed2 := vclock.WallSince(m.at)
	if err := c.Quiesce(); err != nil {
		o.fail(1, "quiesce fence: %v", err)
	}
	if err := c.Drain(); err != nil {
		o.fail(1, "drain fence after phase 2: %v", err)
	}
	use2 := m.stop(n / 2)
	o.use = use1.add(use2)
	whole := vclock.WallSince(t0)
	// Unacknowledged deltas sit in the primaries' retransmit buffers;
	// how many depends on where the last stats tick fell. Let replication
	// settle so the heap holds state, not in-flight copies of it.
	t4 := vclock.WallNow()
	if !c.Await(fenceWatchdog, c.ReplicationSettled) {
		o.fail(1, "replication never settled after phase 2 (lag %d bytes)", c.ReplicationLagTotal())
	}
	resettle := vclock.WallSince(t4)
	o.values["proc.live_heap_mb"] = liveHeapMB()
	// The application-server fence can be overtaken by a result frame
	// (see runPacedMaterialize). A second fence gives the frame two more
	// round trips, and closing the network waits for the application
	// server's handler, so the result sets are complete and quiet when
	// they are read.
	if err := c.Drain(); err != nil {
		o.fail(1, "second drain fence: %v", err)
	}
	res, err := c.Finish()
	if err != nil {
		return nil, err
	}
	h.close()

	o.attempted = int64(n)
	if int(res.Generated) != n {
		o.fail(absDiff(res.Generated, uint64(n)), "fed %d tuples, schedule has %d", res.Generated, n)
	}
	runtimeResults := uint64(res.RuntimeSet.Len())
	if got := runtimeResults + uint64(res.CleanupSet.Len()); got != h.in.oracle {
		o.fail(absDiff(got, h.in.oracle), "run-time %d + cleanup %d = %d results, oracle %d",
			res.RuntimeSet.Len(), res.CleanupSet.Len(), got, h.in.oracle)
	}
	if res.Duplicates != 0 {
		o.fail(int64(res.Duplicates), "%d duplicate results", res.Duplicates)
	}
	// The feeder continues its virtual schedule across the failover, so
	// the tuples that fell due meanwhile arrive as a burst and phase 2 is
	// that much shorter: only the whole interval is independent of how
	// long the failover took.
	o.values["throughput_tps"] = float64(n) / whole.Seconds()
	o.values["cpu_us_per_tuple"] = o.use.cpuUsPerTuple()
	o.values["runtime_results_per_tuple"] = float64(runtimeResults) / float64(n)
	o.values["runtime_result_share"] = share(runtimeResults, h.in.oracle)
	o.values["failover_s"] = failover.Seconds()
	o.values["replica.settle_ms"] = float64(settle.Microseconds()) / 1e3
	o.values["replica.phase1_cpu_us_per_tuple"] = use1.cpuUsPerTuple()
	o.values["replica.phase2_cpu_us_per_tuple"] = use2.cpuUsPerTuple()
	o.values["gen.feed_overrun_share"] = fed2.Seconds()/(e.seconds*failoverPhase) - 1
	harnessLayerValues(o, res)
	o.note("replicated_failover: %d tuples at %d/s in two phases, %s killed between them, %d promotions, settle %.0f ms, failover %.0f ms, re-settle %.0f ms, %d results",
		n, failoverRate, victim, res.Promotions, o.values["replica.settle_ms"], failover.Seconds()*1e3, resettle.Seconds()*1e3, runtimeResults)
	if e.rec != nil {
		o.trace = &traceInput{rec: e.rec, wall: o.use.wall, tuples: int64(n), results: runtimeResults, emit: emitMaterialize, harness: true, crashAt: t2}
	}
	return o, nil
}

// share is the part of the oracle's results produced at run time; an
// input too small to join anything has produced all of nothing.
func share(runtime, oracle uint64) float64 {
	if oracle == 0 {
		return 1
	}
	return float64(runtime) / float64(oracle)
}

func absDiff(a, b uint64) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}

func fmtList(v []float64) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.0f", x)
	}
	return s
}
