// Command benchmark is the repository's end-to-end benchmark: one
// process hosts a whole cluster — generator/split host, three engines,
// coordinator, application server — connected only through real TCP on
// loopback, and drives it through the public entry points with four
// named workloads. README.md in this directory says why each workload
// and metric exists; BENCHMARK.json at the repository root is the
// contract the output follows.
//
//	go run ./benchmark                         every workload, one child process each
//	go run ./benchmark -workload flood_count   one workload, in this process
//	go run ./benchmark -trace                  also the per-layer ledger from a traced re-run
//	go run ./benchmark -repeat 5               five sets, spreads checked against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"repro/benchmark/tracenet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
}

// metricValue and result are the last line of a single-workload run,
// exactly as BENCHMARK.json's contract spells it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	// The driver passes "--trace 0|1"; a person types a bare "-trace".
	// The flag package cannot parse both forms of one flag, so the bare
	// form is rewritten to "-trace=1" first.
	norm := make([]string, 0, len(args))
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || args[i+1] != "0" && args[i+1] != "1") {
			a = "-trace=1"
		}
		norm = append(norm, a)
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run in this process (default: all, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; reaches the cluster only as generated tuples")
	fs.Float64Var(&o.seconds, "seconds", 20, "seconds each workload measures for")
	fs.IntVar(&trace, "trace", 0, "1: report the per-layer metrics from a traced re-run instead of the end-to-end ones")
	fs.IntVar(&o.repeat, "repeat", 0, "run N sets (set i with seed+i) and check each end-to-end spread against its bound")
	if err := fs.Parse(norm); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace takes 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.repeat == 1 || o.repeat < 0 {
		return o, fmt.Errorf("-repeat needs at least 2 sets to have a spread, got %d", o.repeat)
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	selected := workloads
	if opts.workload != "" {
		selected = nil
		for _, w := range workloads {
			if w.Name == opts.workload {
				selected = []workloadSpec{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", opts.workload)
			return 2
		}
	}
	if opts.workload != "" && opts.repeat == 0 {
		e := &env{seed: opts.seed, seconds: opts.seconds, floodTuples: 4_000_000, outDir: filepath.Join("benchmark", "out")}
		return runOne(selected[0], e, opts.trace, stdout, stderr)
	}
	return runSets(selected, opts, stdout, stderr)
}

// header records what a number cannot be compared without.
func header(e *env) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d seconds=%g TimeScale=%d JoinParallelism=1 setup_runs=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, e.seed, e.seconds, timeScale, setupRuns)
}

// runOne runs one workload in this process and prints its result line
// last. With trace it runs the workload twice — untraced, then under
// tracenet — and reports the per-layer metrics.
func runOne(w workloadSpec, e *env, trace bool, stdout, stderr io.Writer) int {
	fmt.Fprintln(stdout, "#", header(e))
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	o, err := w.Run(e)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 2
	}
	o.values["setup_s"] = median(e.setups)
	o.values["proc.peak_rss_mb"] = peakRSSMB()
	o.procValues()
	specs := endToEnd
	if trace {
		te := *e
		te.setups, te.rec = nil, tracenet.NewRecorder()
		to, err := w.Run(&te)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s (traced): %v\n", w.Name, err)
			return 2
		}
		file := filepath.Join(e.outDir, "trace-"+w.Name+".json")
		if err := analyze(w.Name, o, to, file); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s (trace analysis): %v\n", w.Name, err)
			return 2
		}
		o.notes = append(o.notes, to.notes...)
		o.note("traced re-run: spans written to %s", file)
		o.attempted += to.attempted
		o.failed += to.failed
		o.problems = append(o.problems, to.problems...)
		specs = perLayer
	}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(stdout, "# FAILED:", p)
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		v := o.values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no spelling for them; a ratio over nothing is nothing
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "%-36s %14.4f %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runSets runs every selected workload in a child process of its own
// (so peak_rss_mb is the workload's, not its predecessors'), once or
// -repeat times, and prints per metric and workload the value or the
// median, quartiles and relative spread.
func runSets(selected []workloadSpec, opts options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sets := max(1, opts.repeat)
	specs := endToEnd
	traceArg := "0"
	if opts.trace {
		specs, traceArg = perLayer, "1"
	}
	samples := make(map[string][]float64) // "workload/metric" -> one value per set
	status := 0
	for set := 0; set < sets; set++ {
		for _, w := range selected {
			seed := opts.seed + int64(set)
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64), "-trace", traceArg)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(stderr, "benchmark: set %d %s: no result line (%v)\n%s", set+1, w.Name, runErr, out.String())
				status = 1
				continue
			}
			fmt.Fprintf(stdout, "set %d/%d %s seed %d: correct=%v attempted=%d failed=%d\n", set+1, sets, w.Name, seed, res.Correct, res.Attempted, res.Failed)
			for _, l := range lines[:len(lines)-1] {
				if strings.HasPrefix(l, "#") {
					fmt.Fprintln(stdout, "  ", l)
				}
			}
			if runErr != nil || !res.Correct {
				status = 1
			}
			for _, m := range specs {
				key := w.Name + "/" + m.Name
				samples[key] = append(samples[key], res.Metrics[m.Name].Value)
				if m.Bound > 0 {
					fmt.Fprintf(stdout, "   %s=%.6g", m.Name, res.Metrics[m.Name].Value)
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "\n%-22s %-36s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range selected {
		for _, m := range specs {
			v := samples[w.Name+"/"+m.Name]
			if len(v) == 0 {
				continue
			}
			if len(v) == 1 {
				fmt.Fprintf(stdout, "%-22s %-36s %14.4f %s\n", w.Name, m.Name, v[0], m.Unit)
				continue
			}
			q1, q3 := quartiles(v)
			med := median(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := ""
			// A metric that is 0 on a workload (a layer that did nothing)
			// has no spread to check.
			// setup_s is a fifth of a second, so its spread is wide; like the
			// driver, gate only its median from one set to the next.
			if m.Bound > 0 && med != 0 && m.Name != "setup_s" {
				verdict = "ok"
				if spread > m.Bound {
					verdict = "EXCEEDS"
					// Only end-to-end metrics gate; with -trace the verdict on
					// the workload-specific figures is advice.
					if !opts.trace {
						status = 1
					}
				}
			}
			fmt.Fprintf(stdout, "%-22s %-36s %14.4f %14.4f %14.4f %7.1f%% %5.0f%% %s %s\n",
				w.Name, m.Name, med, q1, q3, spread*100, m.Bound*100, m.Unit, verdict)
		}
	}
	return status
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is what the driver uses. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
