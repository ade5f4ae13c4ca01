// Command perfbench is ExtDict's end-to-end benchmark. It runs one seeded
// workload through the library's public layers, checks every output, and
// prints one JSON result line:
//
//	perfbench --workload fit_union --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload runs with spans recorded
// around every call the benchmark makes into a layer, and the result
// carries the per-layer metrics derived from those spans. METRICS.md lists
// every metric, the workload it belongs to and the end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"extdict/internal/cluster"
)

// platform is the simulated cluster every workload runs on: one node with
// two ranks, sized to a two-core host.
var platform = cluster.NewPlatform(1, 2)

// workers is the goroutine parallelism handed to the library (OMP coding,
// tuning probes).
const workers = 2

// setups is how many times a run repeats its set-up; setup_s reports the
// median.
const setups = 3

// e2eUnits maps each end-to-end metric (reported with --trace 0) to its
// unit. Every workload reports every one of them.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"op_ms_p50":    "ms",
	"heap_live_mb": "MB",
}

// layerUnits maps each per-layer metric (reported with --trace 1) to its
// unit. A workload that does not reach a layer reports 0 for its metrics.
var layerUnits = map[string]string{
	"dataset.gen_s":                "s",
	"tune.s":                       "s",
	"tune.rounds":                  "count",
	"tune.probe_cols":              "count",
	"exd.fit_s":                    "s",
	"exd.l":                        "count",
	"exd.alpha":                    "nnz/col",
	"exd.pred_iter_us":             "us",
	"quality_db":                   "dB",
	"omp.gram_s":                   "s",
	"omp.encode_s":                 "s",
	"omp.iters":                    "count",
	"omp.iters_per_s":              "1/s",
	"omp.panel_us_b1":              "us",
	"omp.panel_us_b2":              "us",
	"mat.mulvect_gbps":             "GB/s",
	"sparse.c_mulvec_gbps":         "GB/s",
	"dist.apply_us_p50":            "us",
	"dist.apply_us_p90":            "us",
	"dist.apply_share":             "frac",
	"solver.aty_us":                "us",
	"solver.iters_per_patch":       "count",
	"cluster.path_words_per_apply": "count",
	"cluster.max_flops_per_apply":  "count",
	"cluster.max_bytes_per_apply":  "count",
	"cluster.phases_per_apply":     "count",
	"cluster.modeled_us_per_apply": "us",
	"cluster.model_over_wall":      "ratio",
	"serve.lat_ms_p99":             "ms",
	"serve.handler_ms_p50":         "ms",
	"serve.transport_ms_p50":       "ms",
	"serve.mean_batch":             "count",
	"serve.depth_peak":             "count",
	"serve.shed":                   "count",
	"serve.gen_late_ms_p50":        "ms",
	"serve.gen_late_ms_p99":        "ms",
	"alloc_mb":                     "MB",
	"heap_peak_mb":                 "MB",
	"gc_cycles":                    "count",
	"fail_frac":                    "frac",
	"trace_overhead_frac":          "frac",
	"op_ms_p50_traced":             "ms",
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"fit_union":   runFitUnion,
	"denoise_lf":  runDenoise,
	"serve_lf_lo": func(c runConfig, r *report) error { return runServe(c, r, 100) },
	"serve_lf_hi": func(c runConfig, r *report) error { return runServe(c, r, 200) },
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// small shrinks every input, and the serving rate, so tests can run a
	// workload in seconds, also under the race detector.
	small bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's numbers. Workloads fill both metric sets; the
// run prints the one its trace mode selects.
type report struct {
	attempted, failed int
	// failures holds a description of each failed check (at most a few are
	// printed).
	failures []string
	e2e      map[string]float64
	layer    map[string]float64
	tr       *tracer
	// mem samples the live heap during traced runs only, so that the
	// sampler cannot disturb the end-to-end timings.
	mem *memWatch
}

func newReport(trace bool) *report {
	r := &report{
		e2e:   map[string]float64{},
		layer: map[string]float64{},
		tr:    newTracer(trace),
	}
	if trace {
		r.mem = startMemWatch()
	}
	return r
}

// fail records a failed check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check counts one attempted check and records it as failed when err is
// non-nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// finish assembles the printed result.
func (r *report) finish(trace bool) (result, error) {
	if r.mem != nil {
		r.mem.stop()
		r.layer["heap_peak_mb"] = float64(r.mem.peakLive) / 1e6
	}
	r.layer["fail_frac"] = float64(r.failed) / float64(max(r.attempted, 1))
	r.layer["trace_overhead_frac"] = r.tr.overheadFrac()
	r.layer["op_ms_p50_traced"] = r.e2e["op_ms_p50"]
	units, vals := e2eUnits, r.e2e
	if trace {
		units, vals = layerUnits, r.layer
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(units)),
	}
	for name, unit := range units {
		v, ok := vals[name]
		if !ok && !trace {
			return res, fmt.Errorf("workload did not measure end-to-end metric %s", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep := newReport(cfg.trace)
	if err := fn(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, err := rep.finish(cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for i, f := range rep.failures {
		if i == 5 {
			fmt.Fprintf(stderr, "... %d more failed checks\n", len(rep.failures)-i)
			break
		}
		fmt.Fprintf(stderr, "check failed: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// deadline returns when a measured phase that starts now should stop.
func (c runConfig) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// subSeed derives the seed of the k-th input of a run.
func (c runConfig) subSeed(k uint64) uint64 { return c.seed*1_000_003 + k*7919 + 1 }
