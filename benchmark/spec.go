package main

// This file is the single table of workload and metric names. The
// smoke test compares it with BENCHMARK.json in both directions, so
// code, output and JSON cannot drift.

// metricSpec names one reported metric. Bound is the share of the
// parent's median by which the metric may worsen before a change
// counts as a regression (0 = reported, not gated).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what every workload reports from its untraced run.
// The driver's contract wants every end-to-end metric on every
// workload and never zero, so only the figures all four workloads
// share live here; the workload-specific ones (result latency,
// run-time result share, cleanup and failover time) head perLayer.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_tps", "tuples/s", "higher", 0.25},
	{"runtime_results_per_tuple", "count", "higher", 0.15},
	{"cpu_us_per_tuple", "us", "lower", 0.25},
}

// perLayer lists what a traced run reports. The first block holds the
// workload-specific end-to-end figures, taken from the untraced half
// of the traced invocation; their bounds are enforced by -repeat only.
// A layer that did nothing on a workload reports 0.
var perLayer = []metricSpec{
	{"result_latency_p50_ms", "ms", "lower", 0.10},
	{"result_latency_p99_ms", "ms", "lower", 0.10},
	{"runtime_result_share", "ratio", "higher", 0.03},
	{"cleanup_s", "s", "lower", 0.10},
	{"failover_s", "s", "lower", 0.10},

	{"split.route_ns_per_tuple", "ns", "lower", 0},
	{"split.tuples_per_batch", "count", "higher", 0},
	{"split.buffered_peak", "count", "lower", 0},

	{"tuple.batch_encode_ns_per_tuple", "ns", "lower", 0},
	{"tuple.batch_decode_ns_per_tuple", "ns", "lower", 0},
	{"tuple.result_encode_ns_per_result", "ns", "lower", 0},
	{"tuple.result_decode_ns_per_result", "ns", "lower", 0},

	{"proto.wire_encode_ns_per_msg", "ns", "lower", 0},
	{"proto.wire_decode_ns_per_msg", "ns", "lower", 0},
	{"proto.bytes_per_tuple", "B", "lower", 0},

	{"transport.send_data_ns_per_tuple", "ns", "lower", 0},
	{"transport.send_slow_share", "ratio", "lower", 0},
	{"transport.data_delay_p50_ms", "ms", "lower", 0},
	{"transport.data_delay_p99_ms", "ms", "lower", 0},
	{"transport.result_delay_p50_ms", "ms", "lower", 0},
	{"transport.bytes_total", "B", "lower", 0},

	{"engine.data_busy_ns_per_tuple", "ns", "lower", 0},
	{"engine.data_self_ns_per_tuple", "ns", "lower", 0},
	{"engine.busy_share_max", "ratio", "lower", 0},
	{"engine.tuple_skew", "ratio", "lower", 0},
	{"engine.result_wait_p50_ms", "ms", "lower", 0},
	{"engine.tick_stats_ms_p50", "ms", "lower", 0},
	{"engine.tick_spill_ms_total", "ms", "lower", 0},

	{"join.process_ns_per_tuple", "ns", "lower", 0},
	{"join.enumerate_ns_per_result", "ns", "lower", 0},
	{"join.state_mb", "MB", "lower", 0},
	{"join.snapshot_encode_mb_per_s", "MB/s", "higher", 0},
	{"join.snapshot_decode_mb_per_s", "MB/s", "higher", 0},

	{"appserver.result_busy_ns_per_result", "ns", "lower", 0},
	{"appserver.busy_share", "ratio", "lower", 0},

	{"coordinator.relocations", "count", "lower", 0},
	{"coordinator.relocation_ms_p50", "ms", "lower", 0},
	{"coordinator.reloc_ptv_ms_p50", "ms", "lower", 0},
	{"coordinator.reloc_marker_ms_p50", "ms", "lower", 0},
	{"coordinator.reloc_transfer_ms_p50", "ms", "lower", 0},
	{"coordinator.reloc_remap_ms_p50", "ms", "lower", 0},
	{"coordinator.reloc_mb_total", "MB", "lower", 0},
	{"coordinator.busy_ms_total", "ms", "lower", 0},

	{"spill.count", "count", "lower", 0},
	{"spill.mb_total", "MB", "lower", 0},
	{"spill.ms_per_mb", "ms", "lower", 0},

	{"cleanup.engine_s_max", "s", "lower", 0},
	{"cleanup.engine_s_sum", "s", "lower", 0},
	{"cleanup.tuples", "count", "lower", 0},
	{"cleanup.segments", "count", "lower", 0},
	{"cleanup.results", "count", "lower", 0},
	{"cleanup.balance", "ratio", "lower", 0},

	{"replica.delta_bytes_per_tuple", "B", "lower", 0},
	{"replica.delta_msgs", "count", "lower", 0},
	{"replica.delta_busy_ns_per_tuple", "ns", "lower", 0},
	{"replica.settle_ms", "ms", "lower", 0},
	{"replica.detect_ms", "ms", "lower", 0},
	{"replica.promote_ms", "ms", "lower", 0},
	{"replica.unpause_ms", "ms", "lower", 0},
	{"replica.phase1_cpu_us_per_tuple", "us", "lower", 0},
	{"replica.phase2_cpu_us_per_tuple", "us", "lower", 0},

	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.feed_overrun_share", "ratio", "lower", 0},

	{"proc.cpu_user_s", "s", "lower", 0},
	{"proc.cpu_sys_s", "s", "lower", 0},
	{"proc.cpu_us_per_tuple", "us", "lower", 0},
	{"proc.allocs_per_tuple", "count", "lower", 0},
	{"proc.alloc_bytes_per_tuple", "B", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms_total", "ms", "lower", 0},
	{"proc.heap_peak_mb", "MB", "lower", 0},
	{"proc.live_heap_mb", "MB", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},

	{"trace.latency_coverage", "ratio", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// workloadSpec names one workload; Why is the one line BENCHMARK.json
// carries, README.md has the long form.
type workloadSpec struct {
	Name string
	Why  string
	Run  func(*env) (*outcome, error)
}

var workloads = []workloadSpec{
	{"flood_count", "closed-loop count-only flood: the ingest path (split, batch codec, wire, transport, engine dispatch, join insert+probe) does all the work", runFloodCount},
	{"paced_materialize", "open loop at 60k tuples/s with every result shipped: the result path (enumerate, encode, buffer until threshold or sr tick, wire, app server) sets latency and CPU", runPacedMaterialize},
	{"constrained_adapt", "open loop at 100k tuples/s into 4:1:1 placement with memory for 66% of the state: relocation, spill and cleanup (the paper's scenario) decide the run-time result share", runConstrainedAdapt},
	{"replicated_failover", "open loop at 50k tuples/s with every tuple also written to a follower, one engine crashed mid-run: replication cost, promotion and re-seed under load", runReplicatedFailover},
}
