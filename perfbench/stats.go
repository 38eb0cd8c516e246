package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pressio/internal/core"
)

// env is what every workload and probe shares within one run.
type env struct {
	seed      int64
	nproc     int
	dir       string           // removed when the run ends
	counters0 map[string]int64 // telemetry counters when the run began

	httpRequests atomic.Int64 // HTTP requests the benchmark sent
	httpShed     atomic.Int64 // responses carrying X-Pressio-Error: shed
}

// workload builds a measurable instance from the seed.
type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

// endValue is a metric an instance reports once it has been torn down.
type endValue struct {
	value  float64
	detail string
}

// instance is one set-up workload.
type instance interface {
	// measure drives traffic for d, logging every checked operation. tr is
	// nil on untraced runs.
	measure(d time.Duration, tr *tracer, log *opLog)
	// finish stops everything set-up started and returns the metrics only
	// known afterwards (keyed by metric name).
	finish() (map[string]endValue, error)
	// probeInputs are this workload's payloads, fed to the per-layer probes.
	probeInputs() []*core.Data
}

var workloads = map[string]workload{
	"fields":  {name: "fields", setup: setupFields},
	"objects": {name: "objects", setup: setupObjects},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Operation kinds. Every workload has a write-direction operation (put:
// compress or store), a full read (get: decompress or load) and a partial
// read (slab); NOTES.md maps each onto the workload's traffic.
const (
	opPut = iota
	opGet
	opSlab
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "slab"}

// sample is one completed operation.
type sample struct {
	lat     time.Duration
	in, out int64     // user bytes in and bytes out (compressed or decoded)
	done    time.Time // completion
}

// opLog collects checked operations; it is safe for concurrent use.
type opLog struct {
	mu       sync.Mutex
	samples  [numKinds][]sample
	failed   int64
	firstErr error
	capRates []float64 // completed operations per second, per iteration or block
	capWhat  string    // what one capRates entry is
	// lag is the benchmark's own time between an operation's answer and
	// the start of the next operation of the same caller: checking the
	// answer, bookkeeping and, in fields, the GC before each operation.
	lag []time.Duration
}

func newOpLog() *opLog { return &opLog{} }

func (l *opLog) add(kind int, lat time.Duration, in, out int64) {
	l.mu.Lock()
	l.samples[kind] = append(l.samples[kind], sample{lat: lat, in: in, out: out, done: time.Now()})
	l.mu.Unlock()
}

// fail counts an operation that failed or produced a wrong output.
func (l *opLog) fail(err error) {
	l.mu.Lock()
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	l.mu.Unlock()
}

func (l *opLog) addLag(d time.Duration) {
	l.mu.Lock()
	l.lag = append(l.lag, d)
	l.mu.Unlock()
}

func (l *opLog) counts() (attempted, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.samples {
		attempted += int64(len(s))
	}
	return attempted + l.failed, l.failed
}

// merge adds o's operations to l.
func (l *opLog) merge(o *opLog) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := range l.samples {
		l.samples[k] = append(l.samples[k], o.samples[k]...)
	}
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
	l.capRates = append(l.capRates, o.capRates...)
	l.capWhat = o.capWhat
	l.lag = append(l.lag, o.lag...)
}

// addRate records one capacity sample.
func (l *opLog) addRate(rate float64, what string) {
	l.mu.Lock()
	l.capRates = append(l.capRates, rate)
	l.capWhat = what
	l.mu.Unlock()
}

func (l *opLog) all() []sample {
	var out []sample
	for _, s := range l.samples {
		out = append(out, s...)
	}
	return out
}

func latencies(s []sample) []time.Duration {
	d := make([]time.Duration, len(s))
	for i, x := range s {
		d[i] = x.lat
	}
	return d
}

// endToEnd derives the end-to-end metrics that every workload computes the
// same way from its operation log.
func (l *opLog) endToEnd(r *report) {
	attempted, failed := l.counts()
	r.set("ok_share", float64(attempted-failed)/float64(attempted), fmt.Sprintf("%d operations", attempted))
	l.mu.Lock()
	defer l.mu.Unlock()

	put, get := l.samples[opPut], l.samples[opGet]
	var putIn, putOut int64
	for _, s := range put {
		putIn, putOut = putIn+s.in, putOut+s.out
	}
	r.set("compress_mb_s", medianRate(put, func(s sample) int64 { return s.in }), fmt.Sprintf("median of %d put operations, %.1f MB in", len(put), float64(putIn)/1e6))
	r.set("decompress_mb_s", medianRate(get, func(s sample) int64 { return s.out }), fmt.Sprintf("median of %d get operations", len(get)))
	r.set("compression_ratio", float64(putIn)/float64(putOut), "user bytes / compressed bytes over put operations")
	r.set("stored_bytes_per_byte", float64(putOut)/float64(putIn), "compressed bytes / user bytes over put operations")

	tails(r, "req", latencies(l.all()))
	for k := 0; k < numKinds; k++ {
		tails(r, kindNames[k], latencies(l.samples[k]))
	}
	capacity := math.NaN()
	if len(l.capRates) > 0 {
		capacity = medianFloat(l.capRates)
	}
	r.set("capacity_rps", capacity, fmt.Sprintf("median of %d %s", len(l.capRates), l.capWhat))
}

// medianRate is the median over operations of bytes(op) / latency(op), in
// MB/s; a median keeps a burst of contention from another tenant of the
// machine out of the figure.
func medianRate(s []sample, bytes func(sample) int64) float64 {
	rates := make([]float64, 0, len(s))
	for _, x := range s {
		rates = append(rates, float64(bytes(x))/1e6/x.lat.Seconds())
	}
	if len(rates) == 0 {
		return math.NaN()
	}
	return medianFloat(rates)
}

// blockRate adds capacity samples from the completion times of s, which
// ran without a pause: block size / block duration over blocks of
// consecutive completions. The reported capacity is their median, which
// keeps a burst of contention from another tenant of the machine out of
// the figure.
func (l *opLog) blockRate(s []sample, what string) {
	done := make([]time.Time, len(s))
	for i, x := range s {
		done[i] = x.done
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	k := max(len(done)/20, 1)
	for i := 0; i+k < len(done); i += k {
		l.addRate(float64(k)/done[i+k].Sub(done[i]).Seconds(), fmt.Sprintf("blocks of %d %s", k, what))
	}
}

// tails sets <prefix>_p50_ms and <prefix>_p99_ms. The second is the highest
// whole percentile (at most the 99th) with at least ten samples beyond it,
// so its name is an upper bound on what a short run can resolve.
func tails(r *report, prefix string, d []time.Duration) {
	p, pct := tail(d)
	n := len(d)
	r.set(prefix+"_p50_ms", ms(percentile(d, 50)), fmt.Sprintf("p50 of %d samples", n))
	r.set(prefix+"_p99_ms", ms(p), fmt.Sprintf("p%d of %d samples", pct, n))
}

// tail returns the highest whole percentile, at most 99, that leaves at
// least ten samples beyond it (the median when there are too few samples).
func tail(d []time.Duration) (time.Duration, int) {
	n := len(d)
	pct := 50
	if n > 20 {
		pct = int(math.Floor(100 * float64(n-10) / float64(n)))
		if pct > 99 {
			pct = 99
		}
	}
	return percentile(d, pct), pct
}

// percentile is the nearest-rank percentile of d (not modified).
func percentile(d []time.Duration, pct int) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(float64(pct)/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t / time.Duration(len(d))
}

// traceOverhead prints, for every end-to-end metric, the traced minus the
// untraced value, and reports as the per-layer tracing overhead the median
// over block pairs of the change in mean operation latency (in percent).
func (r *report) traceOverhead(w io.Writer, untraced, traced *opLog, pairs []float64) {
	ru, rt := newReport(), newReport()
	untraced.endToEnd(ru)
	traced.endToEnd(rt)
	for _, d := range endToEndMetrics {
		if u, ok := ru.values[d.name]; ok {
			fmt.Fprintf(w, "# trace overhead %-24s traced %12.6g - untraced %12.6g = %12.6g %s\n", d.name, rt.values[d.name], u, rt.values[d.name]-u, d.unit)
		}
	}
	u, t := mean(latencies(untraced.all())), mean(latencies(traced.all()))
	r.set("bench.trace_overhead_pct", medianFloat(pairs),
		fmt.Sprintf("median of %d alternating block pairs; mean operation latency %.3f ms traced vs %.3f ms untraced", len(pairs), ms(t), ms(u)))
}

// stolen returns the CPU time the hypervisor has withheld from this
// machine's CPUs while they had work, summed over CPUs: the steal column of
// the cpu line of /proc/stat, in ticks of 10 ms (USER_HZ is 100 on Linux).
// It is 0 where that column does not exist.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line)) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(n) * 10 * time.Millisecond
}

// unstolen is wall time d of work begun when stolen() read s0, less the
// CPU time withheld from each of nproc CPUs meanwhile. On a shared VM that
// time measures the neighbours, not the program; for work that keeps every
// CPU busy it is exactly the wall time lost, for serial work it removes
// part of it.
func unstolen(d, s0 time.Duration, nproc int) time.Duration {
	if s := (stolen() - s0) / time.Duration(nproc); s < d {
		return d - s
	}
	return d
}

// tracer keeps spans in memory and writes them out when the run ends. Spans
// are recorded only by the benchmark's own code, around its calls into each
// layer. A nil *tracer records nothing but still times spans.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one finished span; Req groups the spans of one operation.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span.
type span struct {
	t          *tracer
	id, parent int64
	req        int64
	name       string
	start      time.Time
}

// start opens a span under parent (0 for a root) for operation req.
func (t *tracer) start(name string, parent, req int64) span {
	s := span{t: t, parent: parent, req: req, name: name}
	if t != nil {
		s.id = t.ids.Add(1)
	}
	s.start = time.Now()
	return s
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, spanRecord{
			ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
			Start: int64(s.start.Sub(s.t.t0)), End: int64(now.Sub(s.t.t0)),
		})
		s.t.mu.Unlock()
	}
	return now.Sub(s.start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Spans []spanRecord `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
