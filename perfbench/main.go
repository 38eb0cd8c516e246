// Command perfbench is the repository benchmark: it runs one named workload
// from a seed, checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, taken by timing the
// benchmark's own calls into each layer's public functions, plus the tracing
// overhead. NOTES.md explains the workloads.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload fields --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pressio/internal/trace"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	measure  time.Duration // measured traffic time
	trace    bool
	workdir  string // scratch space inside the checkout
}

func main() {
	var cfg config
	var seconds float64
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: fields or objects")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&traced, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for store files and span dumps")
	flag.Parse()
	cfg.measure = time.Duration(seconds * float64(time.Second))
	cfg.trace = traced == 1
	if flag.NArg() != 0 || (traced != 0 && traced != 1) || seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their check\n", rep.failed, rep.attempted)
		os.Exit(1)
	}
}

// run executes one workload and prints its report; the returned report is
// what the last line of w holds.
func run(cfg config, w io.Writer) (*report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	e := &env{seed: cfg.seed, nproc: runtime.NumCPU(), dir: dir, counters0: trace.Counters()}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d %s/%s %s\n",
		cfg.workload, cfg.seed, cfg.measure.Seconds(), cfg.trace, e.nproc, runtime.GOOS, runtime.GOARCH, runtime.Version())

	inst, setup, err := setupMedian(wl, e)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.set("setup_s", setup, fmt.Sprintf("median of %d set-ups", setupRounds))

	var tr *tracer
	s0, t0 := stolen(), time.Now()
	if !cfg.trace {
		log := newOpLog()
		inst.measure(cfg.measure, nil, log)
		log.endToEnd(rep)
		rep.count(log)
	} else {
		// Tracing alternates off and on in short blocks, each pair in
		// turn starting with either, so both sides see the same host and
		// the same state of the program (a store's journal and segments
		// change over a run). The difference is what the benchmark's own
		// span recording costs on this workload.
		untraced, traced := newOpLog(), newOpLog()
		tr = newTracer()
		block := cfg.measure / (2 * tracePairs)
		var pairs []float64
		for i := 0; i < tracePairs; i++ {
			u, t := newOpLog(), newOpLog()
			if i%2 == 0 {
				inst.measure(block, nil, u)
				inst.measure(block, tr, t)
			} else {
				inst.measure(block, tr, t)
				inst.measure(block, nil, u)
			}
			mu, mt := mean(latencies(u.all())), mean(latencies(t.all()))
			pairs = append(pairs, 100*(float64(mt)-float64(mu))/float64(mu))
			untraced.merge(u)
			traced.merge(t)
		}
		rep.traceOverhead(w, untraced, traced, pairs)
		lag, pct := tail(append(untraced.lag, traced.lag...))
		rep.set("loadgen.lag_p99_ms", ms(lag), fmt.Sprintf("p%d of %d gaps between an answer and the next operation", pct, len(untraced.lag)+len(traced.lag)))
		rep.count(untraced)
		rep.count(traced)
	}
	wall := time.Since(t0)
	fmt.Fprintf(w, "# cpu steal while measuring: %.1f%% of %d CPUs over %.1f s\n",
		100*float64(stolen()-s0)/float64(wall)/float64(e.nproc), e.nproc, wall.Seconds())
	end, err := inst.finish()
	if err != nil {
		return nil, err
	}
	for k, v := range end {
		rep.set(k, v.value, v.detail)
	}
	if rep.failed == 0 && cfg.trace {
		if err := probeLayers(e, inst, tr, rep); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# %d spans written to %s\n", tr.len(), path)
	}
	names, extra := endToEndMetrics, tailMetrics
	if cfg.trace {
		names, extra = perLayerMetrics, nil
	}
	if err := rep.print(w, names, extra); err != nil {
		return nil, err
	}
	return rep, nil
}

// setupRounds is how many times set-up runs; setup_s is their median, and
// the last instance is the one measured. Each round is timed less the CPU
// time the hypervisor withheld meanwhile (see unstolen).
const setupRounds = 5

// tracePairs is how many untraced and traced blocks a traced run
// alternates.
const tracePairs = 6

func setupMedian(wl workload, e *env) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupRounds; i++ {
		if inst != nil {
			if _, err := inst.finish(); err != nil {
				return nil, 0, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		s0, start := stolen(), time.Now()
		var err error
		inst, err = wl.setup(e)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		times = append(times, unstolen(time.Since(start), s0, e.nproc).Seconds())
	}
	sort.Float64s(times)
	return inst, times[len(times)/2], nil
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are printed by every untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ok_share", "ratio", "higher"},
	{"compress_mb_s", "MB/s", "higher"},
	{"decompress_mb_s", "MB/s", "higher"},
	{"compression_ratio", "ratio", "higher"},
	{"req_p50_ms", "ms", "lower"},
	{"capacity_rps", "1/s", "higher"},
	{"put_p50_ms", "ms", "lower"},
	{"get_p50_ms", "ms", "lower"},
	{"slab_p50_ms", "ms", "lower"},
	{"stored_bytes_per_byte", "ratio", "lower"},
}

// tailMetrics are printed by every untraced run as comment lines only: on
// a shared 2-vCPU host their spread from run to run exceeds any bound
// BENCHMARK.json may set (see NOTES.md).
var tailMetrics = []metricDef{
	{"req_p99_ms", "ms", "lower"},
	{"put_p99_ms", "ms", "lower"},
	{"get_p99_ms", "ms", "lower"},
	{"slab_p99_ms", "ms", "lower"},
}

// perLayerMetrics are printed by every traced run.
var perLayerMetrics = []metricDef{
	{"bench.trace_overhead_pct", "%", "lower"},
	{"core.dispatch_overhead_pct", "%", "lower"},
	{"sz.compress_mb_s", "MB/s", "higher"},
	{"sz.decompress_mb_s", "MB/s", "higher"},
	{"sz.predict_quantize_ms_per_mb", "ms/MB", "lower"},
	{"sz.small_call_us", "us", "lower"},
	{"sz.alloc_bytes_per_mb", "B/MB", "lower"},
	{"sz.small_call_alloc_bytes", "B", "lower"},
	{"huffman.encode_mb_s", "MB/s", "higher"},
	{"huffman.decode_mb_s", "MB/s", "higher"},
	{"lossless.deflate_mb_s", "MB/s", "higher"},
	{"lossless.inflate_mb_s", "MB/s", "higher"},
	{"zfp.compress_mb_s", "MB/s", "higher"},
	{"zfp.decompress_mb_s", "MB/s", "higher"},
	{"fpzip.compress_mb_s", "MB/s", "higher"},
	{"fpzip.decompress_mb_s", "MB/s", "higher"},
	{"meta.parallel_efficiency", "ratio", "higher"},
	{"daemon.direct_p50_ms", "ms", "lower"},
	{"daemon.http_overhead_ms", "ms", "lower"},
	{"service.shed_share", "ratio", "lower"},
	{"cluster.hop_ms", "ms", "lower"},
	{"cluster.retries_per_req", "ratio", "lower"},
	{"cluster.hedge_share", "ratio", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.put_alloc_bytes_per_byte", "ratio", "lower"},
	{"h5lite.filter_write_ms", "ms", "lower"},
	{"store.fsyncs_per_put", "ratio", "lower"},
	{"store.checkpoint_ms", "ms", "lower"},
	{"store.journal_bytes_per_byte", "ratio", "lower"},
	{"store.segment_bytes_per_byte", "ratio", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.get_rows_ms", "ms", "lower"},
	{"store.reopen_s", "s", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
}

// report accumulates a run's metrics and operation counts.
type report struct {
	attempted, failed int64
	values            map[string]float64
	detail            map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, detail: map[string]string{}}
}

func (r *report) set(name string, v float64, detail string) {
	r.values[name] = v
	r.detail[name] = detail
}

func (r *report) count(l *opLog) {
	a, f := l.counts()
	r.attempted += a
	r.failed += f
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes one human-readable line per metric of defs and extra (with
// its direction and how it was sampled), then the JSON result of defs as the
// last line.
func (r *report) print(w io.Writer, defs, extra []metricDef) error {
	for _, d := range extra {
		fmt.Fprintf(w, "# %-32s %14.6g %-6s (%s is better) %s; not in BENCHMARK.json\n", d.name, r.values[d.name], d.unit, d.better, r.detail[d.name])
	}
	res := jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		fmt.Fprintf(w, "# %-32s %14.6g %-6s (%s is better) %s\n", d.name, v, d.unit, d.better, r.detail[d.name])
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 && res.Correct {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
