package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/benchmark/tracenet"
	"repro/internal/cluster"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Fixed shape of every workload: the paper's 3-way join over 120
// partition groups on 3 engines, 1 virtual minute per wall second, the
// paper's timers verbatim in virtual time.
const (
	streams      = 3
	partitions   = 120
	payloadBytes = 40
	timeScale    = 60

	statsInterval      = 5 * time.Second  // sr_timer
	spillCheckInterval = 2 * time.Second  // ss_timer
	lbInterval         = 10 * time.Second // lb_timer
	relocMinGap        = 45 * time.Second // τ_m
	relocTheta         = 0.8              // θ_r

	// setupRuns is how often a run repeats its set-up; setup_s is the
	// median, so one slow page-fault burst does not move it.
	setupRuns = 5
)

var engines = []partition.NodeID{"e1", "e2", "e3"}

// procStart approximates process start: package initialisation runs
// before main and after only the Go runtime's own start-up.
var procStart = vclock.WallNow()

// env is what one workload run is given.
type env struct {
	seed    int64
	seconds float64
	// floodTuples is the size of one flood pass; the smoke test shrinks it.
	floodTuples int
	// outDir holds spill stores and span files; it is inside the
	// checkout and git-ignored.
	outDir string
	// rec is non-nil in the traced half of a traced run.
	rec *tracenet.Recorder
	// setups holds the duration of each set-up repetition so far.
	setups []float64
}

// outcome is what one workload run reports.
type outcome struct {
	// attempted counts tuples offered; failed counts tuples whose
	// Ingest/Feed errored, oracle results missing or surplus,
	// duplicates, and fences that timed out.
	attempted, failed int64
	problems          []string
	// values holds every metric the run measured, by name.
	values map[string]float64
	// notes are printed above the result line: pass, window and sample
	// counts and the like.
	notes []string
	// use is what the measured phases consumed, summed.
	use usage
	// trace is what the traced half keeps for the layer analysis.
	trace *traceInput
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// meter reads the process's clocks and counters at the start of a
// measured phase; stop returns what the phase consumed.
type meter struct {
	at  time.Time
	cpu procUsage
	mem memCounters
}

type usage struct {
	tuples int
	wall   time.Duration
	cpu    procUsage
	mem    memCounters
}

func startMeter() meter { return meter{at: vclock.WallNow(), cpu: cpuNow(), mem: memNow()} }

// stop ends a phase that was fed the given number of tuples.
func (m meter) stop(tuples int) usage {
	return usage{tuples: tuples, wall: vclock.WallSince(m.at), cpu: cpuNow().sub(m.cpu), mem: memNow().sub(m.mem)}
}

func (u usage) add(v usage) usage {
	return usage{
		tuples: u.tuples + v.tuples,
		wall:   u.wall + v.wall,
		cpu:    procUsage{user: u.cpu.user + v.cpu.user, sys: u.cpu.sys + v.cpu.sys},
		mem: memCounters{mallocs: u.mem.mallocs + v.mem.mallocs, allocBytes: u.mem.allocBytes + v.mem.allocBytes,
			gcCycles: u.mem.gcCycles + v.mem.gcCycles, gcPause: u.mem.gcPause + v.mem.gcPause},
	}
}

// cpuUsPerTuple is the phase's user+system CPU time per tuple.
func (u usage) cpuUsPerTuple() float64 {
	return float64(u.cpu.total().Microseconds()) / float64(u.tuples)
}

// tps is the phase's tuples per wall second.
func (u usage) tps() float64 { return float64(u.tuples) / u.wall.Seconds() }

// procValues records the proc layer from the measured phases' usage.
func (o *outcome) procValues() {
	n := float64(o.use.tuples)
	o.values["proc.cpu_user_s"] = o.use.cpu.user.Seconds()
	o.values["proc.cpu_sys_s"] = o.use.cpu.sys.Seconds()
	o.values["proc.cpu_us_per_tuple"] = o.use.cpuUsPerTuple()
	o.values["proc.allocs_per_tuple"] = float64(o.use.mem.mallocs) / n
	o.values["proc.alloc_bytes_per_tuple"] = float64(o.use.mem.allocBytes) / n
	o.values["proc.gc_cycles"] = float64(o.use.mem.gcCycles)
	o.values["proc.gc_pause_ms_total"] = float64(o.use.mem.gcPause.Microseconds()) / 1e3
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	// HeapSys only grows, so at the end of the run it is the heap's
	// high-water mark as the OS saw it.
	o.values["proc.heap_peak_mb"] = float64(m.HeapSys) / (1 << 20)
}

// network returns a fresh TCP network on loopback ephemeral ports —
// the only thing connecting the cluster's nodes — wrapped by the
// recorder when the run is traced.
func (e *env) network() transport.Network {
	dir := map[partition.NodeID]string{
		cluster.CoordinatorNode: "127.0.0.1:0",
		cluster.GeneratorNode:   "127.0.0.1:0",
		cluster.AppServerNode:   "127.0.0.1:0",
	}
	for _, n := range engines {
		dir[n] = "127.0.0.1:0"
	}
	var net transport.Network = transport.NewTCP(dir)
	if e.rec != nil {
		net = e.rec.Wrap(net)
	}
	return net
}

// storeDir returns a fresh directory for the engines' spill segments.
func (e *env) storeDir(workload string) (string, error) {
	dir := filepath.Join(e.outDir, fmt.Sprintf("store-%s-%d", workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// timedSetup runs build setupRuns times, discarding (via discard) all
// but the last product, and records each duration. The first is timed
// from process start when this is the process's first set-up.
func timedSetup[T any](e *env, build func() (T, error), discard func(T)) (T, error) {
	var last T
	for i := 0; i < setupRuns; i++ {
		start := vclock.WallNow()
		if len(e.setups) == 0 {
			start = procStart
		}
		v, err := build()
		if err != nil {
			return last, err
		}
		e.setups = append(e.setups, vclock.WallSince(start).Seconds())
		if i < setupRuns-1 {
			discard(v)
			runtime.GC()
			continue
		}
		last = v
	}
	return last, nil
}

// workloadConfig is the synthetic stream shape shared by the key
// generation of the distq workloads and the harness's own feeder.
func workloadConfig(seed int64, joinRate, tupleRange int, interArrival time.Duration) workload.Config {
	return workload.Config{
		Streams:      streams,
		Partitions:   partitions,
		Classes:      []workload.Class{{Fraction: 1, JoinRate: joinRate, TupleRange: tupleRange}},
		InterArrival: interArrival,
		PayloadBytes: payloadBytes,
		Seed:         seed,
	}
}

// input is a generated tuple history in feed order: tuple i belongs to
// stream i%streams and is that stream's (i/streams)-th tuple, so a
// result's sequence numbers index straight back into keys.
type input struct {
	keys   []uint64
	oracle uint64
}

// generate draws perStream tuples per stream from the repo's workload
// generator and counts the full join result over them. The seed
// reaches the cluster only as these tuples.
func generate(cfg workload.Config, perStream int) (*input, error) {
	gen, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	in := &input{keys: make([]uint64, 0, perStream*streams)}
	history := make([]tuple.Tuple, 0, perStream*streams)
	for i := 0; i < perStream; i++ {
		for s := 0; s < streams; s++ {
			t := gen.Next(s, 0)
			t.Payload = nil
			history = append(history, t)
			in.keys = append(in.keys, t.Key)
		}
	}
	in.oracle = join.OracleCount(streams, history)
	return in, nil
}
