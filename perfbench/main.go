// Command perfbench is the repository's benchmark. It drives the live
// prototype (directory shards, page servers and faulting clients over
// loopback TCP) and the trace-driven simulator from outside, through their
// public functions, and reports end-to-end and per-layer metrics.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set (endToEnd below); with --trace 1 the run is split into
// an untraced and a traced half and the metrics are the per-layer set
// (perLayer below), including the tracing overhead between the halves.
// Every line before it is a human-readable report: the host fingerprint,
// every metric by name with its unit, and the verification tally.
//
// A verification mismatch fails the run: the result is printed with
// "correct": false and the process exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The tables below are
// the single source of the metric set; BENCHMARK.json lists the same names
// and units, and the self-test holds the two in step.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"rate_per_s", "1/s"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"dir.lookup_us", "us"},
	{"dir.lookups_per_fault", "ratio"},
	{"server.first_batch_us", "us"},
	{"server.last_batch_us", "us"},
	{"server.bytes_out_per_get", "B"},
	{"wire.bytes_per_fault", "B"},
	{"wire.writes_per_fault", "count"},
	{"wire.reads_per_fault", "count"},
	{"proto.batch_encode_ns", "ns"},
	{"proto.batch_decode_ns", "ns"},
	{"core.plan_ns", "ns"},
	{"client.fault_us", "us"},
	{"client.self_us", "us"},
	{"client.evictions_per_fault", "ratio"},
	{"client.putpages_per_eviction", "ratio"},
	{"client.retries", "count"},
	{"client.cancels", "count"},
	{"client.hit_ns", "ns"},
	{"trace.read_ns_per_ref", "ns"},
	{"trace.gen_s", "s"},
	{"sim.ns_per_ref", "ns"},
	{"sim.run_s", "s"},
	{"sim.events", "count"},
	{"sim.faults", "count"},
	{"sim.bytes_moved", "B"},
	{"sim.modula3.eager.ns_per_ref", "ns"},
	{"sim.modula3.pipelined.ns_per_ref", "ns"},
	{"sim.ld.eager.ns_per_ref", "ns"},
	{"sim.ld.pipelined.ns_per_ref", "ns"},
	{"sim.atom.eager.ns_per_ref", "ns"},
	{"sim.atom.pipelined.ns_per_ref", "ns"},
	{"sim.render.eager.ns_per_ref", "ns"},
	{"sim.render.pipelined.ns_per_ref", "ns"},
	{"sim.gdb.eager.ns_per_ref", "ns"},
	{"sim.gdb.pipelined.ns_per_ref", "ns"},
	{"bench.trace_overhead_pct", "%"},
}

// setupReps is how many times each run builds its workload from scratch;
// setup_s is the median. Only the last build is measured.
const setupReps = 5

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	out      string
}

// workload is one named input set of the benchmark.
type workload interface {
	// setup builds the workload from scratch, tearing down any earlier
	// build first. rep counts the builds of this run from 0.
	setup(rep int) error
	// measure runs the closed loop for d. rec is non-nil in the traced
	// half of a traced run; the workload then records spans into it and
	// snapshots the layer counters it needs.
	measure(d time.Duration, rec *tracer) (*phase, error)
	// layers fills the per-layer metrics from the untraced and traced
	// halves, running the workload's probes.
	layers(untraced, traced *phase, rec *tracer, m map[string]float64) error
	// describe reports the workload's sizes and what its generic metrics
	// mean, for the report.
	describe() description
	close()
}

// description tells the report what a workload's op and rate are.
type description struct {
	sizes   map[string]any
	aliases map[string]string // generic metric -> the workload's own name
}

// phase is what one measured stretch of a workload produced. Its ops fall
// into windows, either equal slices of time or one pass of the workload,
// and the latency and rate metrics are taken over windows (see summary).
type phase struct {
	lat  []float64 // per-op latency in µs; +Inf for a failed op
	key  []int64   // per-op window key: its end in ns from the phase start, or its pass
	work []float64 // per-op work completed (0 for a failed op)

	// span is the phase's length when its windows are slices of time;
	// 0 when they are passes, whose throughput is then in rates.
	span  time.Duration
	rates []float64

	attempted  int64
	failed     int64
	mismatches int64 // verification failures (each also counts as failed)
	checked    int64 // values verified against their expected content
	counters   map[string]float64
	faults     []float64     // latency of the faulting accesses, µs, where the op is not one
	busy       time.Duration // summed latency of the completed ops
}

// timed starts a phase whose windows are slices of its d-long run.
func timed(d time.Duration) *phase { return &phase{span: d} }

// done records a completed op.
func (p *phase) done(lat time.Duration, key int64, work float64) {
	p.busy += lat
	p.lat = append(p.lat, float64(lat)/1e3)
	p.key = append(p.key, key)
	p.work = append(p.work, work)
}

// fail records a failed op: it misses every latency limit.
func (p *phase) fail(mismatch bool, key int64) {
	p.failed++
	if mismatch {
		p.mismatches++
	}
	p.miss(key)
}

// miss records an op that missed every latency limit, leaving the failure
// counts to the caller.
func (p *phase) miss(key int64) {
	p.lat = append(p.lat, math.Inf(1))
	p.key = append(p.key, key)
	p.work = append(p.work, 0)
}

// merge folds other, which shares p's windows, into p.
func (p *phase) merge(other *phase) {
	p.lat = append(p.lat, other.lat...)
	p.key = append(p.key, other.key...)
	p.work = append(p.work, other.work...)
	p.rates = append(p.rates, other.rates...)
	if p.span == 0 {
		p.span = other.span
	}
	p.attempted += other.attempted
	p.failed += other.failed
	p.mismatches += other.mismatches
	p.checked += other.checked
	p.faults = append(p.faults, other.faults...)
	p.busy += other.busy
}

// windowWidth is the width of a time phase's windows: a thirtieth of the
// run, but at least 100 ms and four median ops, so every window holds
// several ops even when the ops are long or the host is slow.
func (p *phase) windowWidth() time.Duration {
	width := p.span / 30
	var finite []float64
	for _, l := range p.lat {
		if !math.IsInf(l, 1) {
			finite = append(finite, l)
		}
	}
	if w := time.Duration(4 * median(finite) * 1e3); w > width {
		width = w
	}
	if width < 100*time.Millisecond {
		width = 100 * time.Millisecond
	}
	if width > p.span {
		width = p.span
	}
	return width
}

// summary is a phase's end-to-end numbers, taken over its windows.
type summary struct {
	p50, p90, rate float64
	windows        int
}

// summary reports the slow decile of the phase's windows: the 90th
// percentile over windows of each window's p50 and p90 op latency, and the
// 10th percentile of the window rates. Ops that end after the last whole
// time window are left out.
func (p *phase) summary() summary {
	win := make([]int, len(p.key))
	count := 0
	var width time.Duration
	if p.span > 0 {
		width = p.windowWidth()
		count = int(p.span / width)
		for i, k := range p.key {
			win[i] = int(time.Duration(k) / width)
		}
	} else {
		for i, k := range p.key {
			win[i] = int(k)
		}
	}
	byWin := make(map[int][]float64)
	for i, l := range p.lat {
		if p.span > 0 && win[i] >= count {
			continue
		}
		byWin[win[i]] = append(byWin[win[i]], l)
	}
	var p50s, p90s []float64
	for _, lat := range byWin {
		p50s = append(p50s, percentile(lat, 0.5))
		p90s = append(p90s, percentile(lat, 0.9))
	}
	rates := p.rates
	if p.span > 0 {
		rates = make([]float64, count)
		for i, w := range win {
			if w < count {
				rates[w] += p.work[i] / width.Seconds()
			}
		}
	}
	return summary{p50: percentile(p50s, slowWindow), p90: percentile(p90s, slowWindow),
		rate: percentile(rates, 1-slowWindow), windows: len(rates)}
}

// slowWindow picks the window a run reports: the one slower than this
// share of the run's windows. Hosts shared with other tenants run code at a
// steady floor speed with bursts well above it; how much of a run the
// bursts cover changes from minute to minute, so a median over windows
// follows the bursts while the slow decile stays on the floor.
const slowWindow = 0.9

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

var workloadNames = []string{"live-random-warm", "live-scan-cold", "live-replay", "sim-apps"}

func newWorkload(opt options) (workload, error) {
	switch opt.workload {
	case "live-random-warm":
		return newRandomWarm(opt), nil
	case "live-scan-cold":
		return newScanCold(opt), nil
	case "live-replay":
		return newReplay(opt), nil
	case "sim-apps":
		return newSimApps(opt), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames, ", "))
}

func main() {
	var stdout, stderr bytes.Buffer
	code := run(os.Args[1:], &stdout, &stderr)
	// The output goes out whole at exit; a failed write to the process's
	// own stdio leaves nowhere to report the failure.
	_, _ = os.Stdout.Write(stdout.Bytes())
	_, _ = os.Stderr.Write(stderr.Bytes())
	os.Exit(code)
}

func run(args []string, stdout, stderr *bytes.Buffer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&opt.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.BoolVar(&opt.tiny, "tiny", false, "shrink every size (self-test)")
	fs.StringVar(&opt.out, "out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opt.trace = traceFlag == 1
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	w, err := newWorkload(opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := execute(opt, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute sets the workload up setupReps times, measures it, and builds
// the result.
func execute(opt options, w workload, out *bytes.Buffer) (*result, error) {
	desc := w.describe()
	host := fingerprint(opt, desc)
	hostLine, err := json.Marshal(host)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "host %s\n", hostLine)

	defer w.close()
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := clock()
		if err := w.setup(rep); err != nil {
			return nil, fmt.Errorf("%s setup: %w", opt.workload, err)
		}
		setups = append(setups, since(start).Seconds())
	}
	d := time.Duration(opt.seconds * float64(time.Second))

	res := &result{Metrics: make(map[string]metricValue)}
	var measured []*phase
	if !opt.trace {
		ph, err := w.measure(d, nil)
		if err != nil {
			return nil, err
		}
		measured = append(measured, ph)
		sum := ph.summary()
		e2e := map[string]float64{
			"setup_s":    median(setups),
			"op_p50_us":  sum.p50,
			"op_p90_us":  sum.p90,
			"rate_per_s": sum.rate,
			"heap_mb":    liveHeapMB(),
		}
		fmt.Fprintf(out, "samples ops=%d windows=%d setups_s=%.3f\n", len(ph.lat), sum.windows, setups)
		report(out, "end-to-end", endToEnd, e2e, desc.aliases)
		fill(res, endToEnd, e2e)
	} else {
		untraced, err := w.measure(d/2, nil)
		if err != nil {
			return nil, err
		}
		rec := newTracer()
		traced, err := w.measure(d/2, rec)
		if err != nil {
			return nil, err
		}
		measured = append(measured, untraced, traced)
		layer := make(map[string]float64)
		if err := w.layers(untraced, traced, rec, layer); err != nil {
			return nil, err
		}
		us, ts := untraced.summary(), traced.summary()
		if us.rate > 0 {
			layer["bench.trace_overhead_pct"] = (us.rate - ts.rate) / us.rate * 100
		}
		for _, half := range []struct {
			name string
			s    summary
			n    int
		}{{"untraced", us, len(untraced.lat)}, {"traced", ts, len(traced.lat)}} {
			fmt.Fprintf(out, "half %-8s op_p50_us=%.3f op_p90_us=%.3f rate_per_s=%.1f samples=%d\n",
				half.name, half.s.p50, half.s.p90, half.s.rate, half.n)
		}
		report(out, "per-layer", perLayer, layer, nil)
		fill(res, perLayer, layer)
		path, err := rec.write(opt, hostLine)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans %d written to %s (%d dropped past the cap)\n", rec.count(), path, rec.dropped)
		for _, st := range rec.selfTimes() {
			fmt.Fprintf(out, "span %-28s count=%-8d total_ms=%-10.3f self_ms=%.3f\n", st.name, st.count,
				float64(st.total)/1e6, float64(st.self)/1e6)
		}
	}

	var total phase
	for _, ph := range measured {
		total.merge(ph)
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.mismatches == 0 && total.checked > 0 && total.attempted > 0
	failRatio := 0.0
	if total.attempted > 0 {
		failRatio = float64(total.failed) / float64(total.attempted)
	}
	fmt.Fprintf(out, "metric %-34s %14.6g %s\n", "fail_ratio", failRatio, "ratio")
	fmt.Fprintf(out, "verify %s checked=%d mismatches=%d attempted=%d failed=%d correct=%v\n",
		opt.workload, total.checked, total.mismatches, total.attempted, total.failed, res.Correct)
	return res, nil
}

// fill copies the values of every metric in defs into the result. Layers a
// workload does not exercise report 0.
func fill(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.name]
		if math.IsInf(v, 1) || math.IsNaN(v) {
			// A percentile that lands on a failed op; JSON has no
			// infinity, and a failed op misses every latency limit.
			v = math.MaxFloat64
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
}

// report prints every metric by name with its unit, plus the workload's
// own name for it where it has one.
func report(out *bytes.Buffer, kind string, defs []metricDef, vals map[string]float64, aliases map[string]string) {
	for _, d := range defs {
		alias := ""
		if a, ok := aliases[d.name]; ok {
			alias = "(" + a + ")"
		}
		fmt.Fprintf(out, "metric %-34s %14.6g %-5s %s %s\n", d.name, vals[d.name], d.unit, kind, alias)
	}
}

// liveHeapMB is the live heap after a forced collection, in MB (10^6 B).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// percentile is the nearest-rank p-quantile of xs; it leaves xs unsorted,
// since callers keep it aligned with other per-op slices. Failed ops are
// +Inf samples, so they count against every limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle of xs (the mean of the two middle values for an
// even count); it leaves xs unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fingerprint records what the numbers depend on, so results from
// different hosts are never compared silently.
func fingerprint(opt options, desc description) map[string]any {
	return map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"tiny":       opt.tiny,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"kernel":     kernelRelease(),
		"network":    "loopback (127.0.0.1); every component runs in this one process",
		"sizes":      desc.sizes,
	}
}

// clients is how many closed-loop client goroutines a live workload runs:
// two, or one on a single-CPU host.
func clients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}
