// Command benchgate is the benchmark regression gate: it runs the
// hot-path micro-benchmarks (internal/bench) at fixed iteration counts
// and one compressed figure run, writes the machine-readable
// BENCH_15.json report, and exits non-zero if any gated metric regressed
// more than the threshold against the committed BENCH_BASELINE.json.
// (The TCP data path is measured end to end by `go run ./benchmark`,
// workload flood_count.)
//
//	go run ./cmd/benchgate                  # full run, gate against baseline
//	go run ./cmd/benchgate -skip-figure     # micro-benchmarks only
//	go run ./cmd/benchgate -write-baseline  # refresh BENCH_BASELINE.json
//
// The figure run honours REPRO_SCALE and REPRO_DURATION_FACTOR like the
// figure benchmarks (bench_test.go); the default duration factor here
// is 0.05 so the gate stays a smoke, not an evaluation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/vclock"
)

// Pre-PR figures of the codec benchmarks, measured on the 2-core
// reference box at the commit before the engine stopped decoding its
// batches (680b2c7), so the before/after comparison travels with the
// report. batch_stream did not exist there: its entry is what reading the
// same 256-tuple batch cost then: one DecodeBatch of it. result_set_add's
// entry is the same case run against the fingerprint-string map the
// result set was before it became an arena of records (3133174, median
// of three runs on the same box). join_enumerate's entry is the same
// case run against the recursive enumerator over 32-byte records that
// the seq column and the odometer replaced (c5d0961, median of three).
// replica_tap's and replica_apply's entries are the same bodies run
// against the replicator the tap slots and encoded standby tails replaced
// (96c3f47, median of three): a bufferAppend of five map operations into
// a buffer every tick restarted from nil, and an append decoded into
// owned tuples on arrival. join_process_count_only's and
// join_snapshot_count_only's entries are the same bodies run against the
// count-only group that kept a 32-byte record per tuple in a log beside
// its payload in a page (6cb4f1a, median of five). split_route's entry:
// the router that started each batch in a fresh buffer (bd749e5, median of ten).
// cleanup_merge's entry: the cleanup that copied every generation into
// per-input maps of tuples and walked them with a recursive enumerator
// (537cb6b, its BENCH_15.json).
var prePR = map[string]bench.Metric{
	"split_route": {
		Name: "split_route", N: 1_000_000,
		NsPerOp: 60.5, AllocsPerOp: 0.007883, BytesPerOp: 72.29, LiveBytesPerOp: 0.0366,
	},
	"join_process_count_only": {
		Name: "join_process_count_only", N: 300_000,
		NsPerOp: 184.7, AllocsPerOp: 0.0076, BytesPerOp: 92.62, LiveBytesPerOp: 92.35,
	},
	"join_snapshot_count_only": {
		Name: "join_snapshot_count_only", N: 300_000,
		NsPerOp: 77.4, AllocsPerOp: 0.0036, BytesPerOp: 62.41,
	},
	"replica_tap": {
		Name: "replica_tap", N: 1_000_000,
		NsPerOp: 194.3, AllocsPerOp: 0.07124, BytesPerOp: 333.0, LiveBytesPerOp: 1.25,
	},
	"replica_apply": {
		Name: "replica_apply", N: 1_000_000,
		NsPerOp: 217.5, AllocsPerOp: 0.10391, BytesPerOp: 442.2, LiveBytesPerOp: 0.09,
	},
	"join_enumerate": {
		Name: "join_enumerate", N: 6_000_000,
		NsPerOp: 8.92, AllocsPerOp: 0.0000313, BytesPerOp: 1.449, LiveBytesPerOp: 0.656,
	},
	"result_set_add": {
		Name: "result_set_add", N: 1_000_000,
		NsPerOp: 646.6, AllocsPerOp: 4.0082, BytesPerOp: 303.6, LiveBytesPerOp: 103.8,
	},
	"tuple_decode": {
		Name: "tuple_decode", N: 1_000_000,
		NsPerOp: 69.2, AllocsPerOp: 1.0000, BytesPerOp: 48.0,
	},
	"batch_round_trip": {
		Name: "batch_round_trip", N: 2_000,
		NsPerOp: 44867.6, AllocsPerOp: 3.0290, BytesPerOp: 45056.7,
	},
	"batch_stream": {
		Name: "batch_stream", N: 20_000,
		NsPerOp: 19802.9, AllocsPerOp: 2.0001, BytesPerOp: 26624.0,
	},
	"cleanup_merge": {
		Name: "cleanup_merge", N: 500,
		NsPerOp: 212523.6, AllocsPerOp: 605.172, BytesPerOp: 300988.1,
	},
}

// baselineMetric is one committed reference measurement; Gate names the
// fields a regression fails on (ns_per_op is deliberately not gated by
// default — wall time is too machine-dependent for CI).
type baselineMetric struct {
	bench.Metric
	Gate []string `json:"gate"`
}

type baselineFile struct {
	Schema  string           `json:"schema"`
	Metrics []baselineMetric `json:"metrics"`
}

type figureReport struct {
	ID     string `json:"id"`
	Passed bool   `json:"passed"`
	WallNs int64  `json:"wall_ns"`
}

type regression struct {
	Metric   string  `json:"metric"`
	Field    string  `json:"field"`
	Baseline float64 `json:"baseline"`
	Measured float64 `json:"measured"`
	LimitPct float64 `json:"limit_pct"`
}

type gateReport struct {
	ThresholdPct float64      `json:"threshold_pct"`
	BaselineFile string       `json:"baseline_file"`
	Regressions  []regression `json:"regressions"`
	Passed       bool         `json:"passed"`
}

type report struct {
	Schema       string                  `json:"schema"`
	GoMaxProcs   int                     `json:"gomaxprocs"`
	Metrics      []bench.Metric          `json:"metrics"`
	Figure       *figureReport           `json:"figure,omitempty"`
	BaselinePre  map[string]bench.Metric `json:"baseline_pre_pr"`
	AllocsGainPc map[string]float64      `json:"allocs_improvement_pct"`
	Gate         gateReport              `json:"gate"`
}

func main() {
	out := flag.String("out", "BENCH_15.json", "report output path")
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "committed baseline to gate against")
	threshold := flag.Float64("threshold", 15, "regression threshold in percent")
	skipFigure := flag.Bool("skip-figure", false, "skip the compressed figure run")
	writeBaseline := flag.Bool("write-baseline", false, "write measured metrics to the baseline path and exit")
	flag.Parse()

	rep := report{
		Schema:       "distq-bench/1",
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		BaselinePre:  prePR,
		AllocsGainPc: map[string]float64{},
		Gate:         gateReport{ThresholdPct: *threshold, BaselineFile: *baselinePath, Passed: true},
	}

	cases := bench.Cases()
	for _, c := range cases {
		m := bench.Run(c, 0)
		rep.Metrics = append(rep.Metrics, m)
		fmt.Printf("%-30s n=%-8d %12.1f ns/op %12.4f allocs/op %12.1f B/op %10.1f live B/op\n",
			m.Name, m.N, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, m.LiveBytesPerOp)
		if pre, ok := prePR[m.Name]; ok && pre.AllocsPerOp > 0 {
			rep.AllocsGainPc[m.Name] = 100 * (pre.AllocsPerOp - m.AllocsPerOp) / pre.AllocsPerOp
		}
	}

	if *writeBaseline {
		writeBaselineFile(*baselinePath, cases, rep.Metrics)
		return
	}

	if !*skipFigure {
		opts := experiments.RunOpts{Scale: 600, DurationFactor: 0.05}
		if v, err := strconv.ParseFloat(os.Getenv("REPRO_SCALE"), 64); err == nil && v > 0 {
			opts.Scale = v
		}
		if v, err := strconv.ParseFloat(os.Getenv("REPRO_DURATION_FACTOR"), 64); err == nil && v > 0 {
			opts.DurationFactor = v
		}
		start := vclock.WallNow()
		figRep, err := experiments.Fig05(opts)
		if err != nil {
			fatal(fmt.Errorf("figure run: %w", err))
		}
		rep.Figure = &figureReport{ID: figRep.ID, Passed: figRep.Passed(), WallNs: vclock.WallSince(start).Nanoseconds()}
		fmt.Printf("figure %s passed=%v\n", figRep.ID, figRep.Passed())
	}

	rep.Gate.Regressions = gate(*baselinePath, rep.Metrics, *threshold)
	rep.Gate.Passed = len(rep.Gate.Regressions) == 0

	writeReport(*out, &rep)

	if !rep.Gate.Passed {
		reportRegressions(rep.Gate.Regressions)
		os.Exit(1)
	}
}

func writeReport(path string, rep *report) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func reportRegressions(regs []regression) {
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "REGRESSION %s %s: %.4f -> %.4f (limit +%.0f%%)\n",
			r.Metric, r.Field, r.Baseline, r.Measured, r.LimitPct)
	}
}

// gate compares measured metrics against the committed baseline. A
// missing baseline file disables gating (first run on a new machine)
// but is reported on stderr.
func gate(path string, metrics []bench.Metric, thresholdPct float64) []regression {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: no baseline at %s; gating skipped\n", path)
		return nil
	}
	var base baselineFile
	if err := json.Unmarshal(buf, &base); err != nil {
		fatal(fmt.Errorf("parse baseline %s: %w", path, err))
	}
	measured := make(map[string]bench.Metric, len(metrics))
	for _, m := range metrics {
		measured[m.Name] = m
	}
	var regs []regression
	for _, b := range base.Metrics {
		m, ok := measured[b.Name]
		if !ok {
			continue
		}
		for _, field := range b.Gate {
			var baseV, measV float64
			switch field {
			case "ns_per_op":
				baseV, measV = b.NsPerOp, m.NsPerOp
			case "allocs_per_op":
				baseV, measV = b.AllocsPerOp, m.AllocsPerOp
			case "bytes_per_op":
				baseV, measV = b.BytesPerOp, m.BytesPerOp
			case "live_bytes_per_op":
				baseV, measV = b.LiveBytesPerOp, m.LiveBytesPerOp
			default:
				fatal(fmt.Errorf("baseline %s: unknown gate field %q", b.Name, field))
			}
			// The small absolute slack keeps near-zero baselines (the
			// fractional-alloc hot paths) from tripping on noise.
			if measV > baseV*(1+thresholdPct/100)+0.01 {
				regs = append(regs, regression{
					Metric: b.Name, Field: field,
					Baseline: baseV, Measured: measV, LimitPct: thresholdPct,
				})
			}
		}
	}
	return regs
}

func writeBaselineFile(path string, cases []bench.Case, metrics []bench.Metric) {
	base := baselineFile{Schema: "distq-bench-baseline/1"}
	for i, m := range metrics {
		gate := []string{"allocs_per_op", "bytes_per_op"}
		if cases[i].GateLive {
			gate = append(gate, "live_bytes_per_op")
		}
		base.Metrics = append(base.Metrics, baselineMetric{Metric: m, Gate: gate})
	}
	buf, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
