// Command perfbench measures the host cost of this repository: the wall
// time, memory and CPU it takes to run the simulator and the real osfs
// library path.  run.py builds it and drives it; README.md documents the
// workloads and every metric.
//
//	perfbench -workload n1-strided-4k -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// referenceJSON holds the simulated outputs recorded for fixed seeds:
// workload -> seed -> outputs.
//
//go:embed reference.json
var referenceJSON []byte

type references map[string]map[string]simOutputs

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	t0        time.Time // process start as the launcher saw it
	setupOnly bool
	workDir   string
	recordTo  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var trace int
	var t0 int64
	fl.StringVar(&cfg.workload, "workload", "", "n1-strided-4k | meta-storm-4k | osfs-restart")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "measure for at least this many seconds")
	fl.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	fl.Int64Var(&t0, "t0", 0, "process start in Unix nanoseconds, as the launcher saw it (0: main's start)")
	fl.BoolVar(&cfg.setupOnly, "setup-only", false, "set up, report setup_s and exit")
	fl.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for osfs backing stores")
	fl.StringVar(&cfg.recordTo, "record", "", "record the seed's simulated outputs into this reference file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.t0 = start
	if t0 != 0 {
		cfg.t0 = time.Unix(0, t0)
	}
	var res result
	var err error
	switch cfg.workload {
	case "n1-strided-4k":
		res, err = simBench(cfg, n1Spec(simRanks))
	case "meta-storm-4k":
		res, err = simBench(cfg, stormSpec(simRanks))
	case "osfs-restart":
		res, err = restartBench(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// timed runs fn and returns its host nanoseconds and the bytes it
// allocated.  The memory statistics are read outside the timed interval.
func timed(fn func()) (ns int64, alloc uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	fn()
	ns = int64(time.Since(t))
	runtime.ReadMemStats(&m1)
	return ns, m1.TotalAlloc - m0.TotalAlloc
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// setupResult is what -setup-only prints.
func setupResult(cfg config) result {
	return result{Correct: true, Attempted: 1, Metrics: map[string]metric{
		"setup_s": {time.Since(cfg.t0).Seconds(), "s"},
	}}
}

// endToEnd builds the untraced metrics every workload reports.
func endToEnd(setup time.Duration, hostNS []float64, alloc []float64, attempted, failed int) map[string]metric {
	okFrac := 0.0
	if attempted > 0 {
		okFrac = 1 - float64(failed)/float64(attempted)
	}
	return map[string]metric{
		"setup_s":     {setup.Seconds(), "s"},
		"host_s":      {median(hostNS) / 1e9, "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"alloc_mb":    {median(alloc) / (1 << 20), "MB"},
		"ok_frac":     {okFrac, "1"},
	}
}

// schedule says whether iteration i is traced: a traced run alternates
// untraced and traced iterations, so trace.overhead_frac compares the
// two within one process.
func schedule(trace bool, i int) bool { return trace && i%2 == 1 }

// done reports whether the measurement loop may stop after iteration i.
func done(cfg config, deadline time.Time, i int) bool {
	if cfg.trace && i < 1 {
		return false // need one iteration of each kind
	}
	return !time.Now().Before(deadline)
}

// profiler collects the CPU and allocation profiles of traced
// iterations, attributed to buckets.
type profiler struct {
	cpuNS map[string]int64
	alloc map[string]int64
	iters int
}

func newProfiler() *profiler {
	return &profiler{cpuNS: map[string]int64{}, alloc: map[string]int64{}}
}

func allocBuckets() (map[string]int64, error) {
	runtime.GC() // the allocation profile is published at the end of a GC cycle
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	b, err := p.buckets("alloc_space", bucketRuntime)
	if err != nil {
		return nil, err
	}
	b[bucketRuntime] += b[bucketGC]
	delete(b, bucketGC)
	return b, nil
}

// profile runs fn under the CPU profiler and adds its attributed CPU
// time and allocations to the totals.
func (p *profiler) profile(fn func()) error {
	before, err := allocBuckets()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	after, err := allocBuckets()
	if err != nil {
		return err
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	cpu, err := prof.buckets("cpu", bucketSched)
	if err != nil {
		return err
	}
	for k, v := range cpu {
		p.cpuNS[k] += v
	}
	for k, v := range after {
		p.alloc[k] += v - before[k]
	}
	p.iters++
	return nil
}

// perLayer is every per-layer metric with its unit, in report order.
// BENCHMARK.json lists the same names (TestBenchmarkJSONMatches).
func perLayer() [][2]string {
	var m [][2]string
	add := func(name, unit string) { m = append(m, [2]string{name, unit}) }
	cpu := append(append([]string(nil), layers...), bucketOther, bucketBench, bucketGC, bucketSched, "total")
	for _, b := range cpu {
		add("cpu_s."+b, "s")
	}
	alloc := append(append([]string(nil), layers...), bucketOther, bucketBench, bucketRuntime, "total")
	for _, b := range alloc {
		add("alloc_mb."+b, "MB")
	}
	add("plfs.index_entries", "count")
	add("plfs.droppings", "count")
	add("plfs.cpu_model_vs", "s")
	add("plfs.sleeps", "count")
	add("plfs.self_host_s", "s")
	add("mpi.calls", "count")
	for _, c := range collNames {
		add("mpi.calls."+c, "count")
	}
	add("mpi.bytes", "bytes")
	add("mpi.wait_vs", "s")
	add("mpi.host_s", "s")
	add("backend.ops", "count")
	for _, o := range opNames {
		add("backend.ops."+o, "count")
	}
	add("backend.errors", "count")
	add("backend.wait_vs", "s")
	add("backend.host_s", "s")
	add("pfs.mds_busy_vs", "s")
	add("pfs.mdsread_busy_vs", "s")
	add("pfs.mds_skew", "ratio")
	add("pfs.meta_ops", "count")
	add("pfs.disk_mb", "MB")
	add("pfs.net_mb", "MB")
	add("sim.end_vs", "s")
	add("write_mb_s", "MB/s")
	add("open_ms_p50", "ms")
	add("open_ms_p95", "ms")
	add("open.samples", "count")
	add("read_us_p50", "us")
	add("read_us_p99", "us")
	add("read.samples", "count")
	add("trace.overhead_frac", "1")
	return m
}

// layerMetrics fills every per-layer metric: values present in vals are
// reported, the rest as zero (a layer the workload does not use).
func layerMetrics(vals map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, nu := range perLayer() {
		out[nu[0]] = metric{vals[nu[0]], nu[1]}
	}
	return out
}

// profileValues converts the profiler's totals to per-iteration values.
func (p *profiler) values(vals map[string]float64) {
	if p.iters == 0 {
		return
	}
	n := float64(p.iters)
	var cpuTotal, allocTotal int64
	for k, v := range p.cpuNS {
		vals["cpu_s."+k] = float64(v) / 1e9 / n
		cpuTotal += v
	}
	for k, v := range p.alloc {
		vals["alloc_mb."+k] = float64(v) / (1 << 20) / n
		allocTotal += v
	}
	vals["cpu_s.total"] = float64(cpuTotal) / 1e9 / n
	vals["alloc_mb.total"] = float64(allocTotal) / (1 << 20) / n
}

// tracerValues converts the wrappers' counters to per-iteration values.
func (t *tracer) values(vals map[string]float64, iters int) {
	if iters == 0 {
		return
	}
	n := float64(iters)
	var calls, ops int64
	for i, c := range collNames {
		v := t.mpiCalls[i].Load()
		vals["mpi.calls."+c] = float64(v) / n
		calls += v
	}
	for i, o := range opNames {
		v := t.beOps[i].Load()
		vals["backend.ops."+o] = float64(v) / n
		ops += v
	}
	vals["mpi.calls"] = float64(calls) / n
	vals["mpi.bytes"] = float64(t.mpiBytes.Load()) / n
	vals["mpi.wait_vs"] = float64(t.mpiWaitNS.Load()) / 1e9 / n
	vals["mpi.host_s"] = float64(t.mpiHostNS.Load()) / 1e9 / n
	vals["backend.ops"] = float64(ops) / n
	vals["backend.errors"] = float64(t.beErrors.Load()) / n
	vals["backend.wait_vs"] = float64(t.beWaitNS.Load()) / 1e9 / n
	vals["backend.host_s"] = float64(t.beHostNS.Load()) / 1e9 / n
	vals["plfs.sleeps"] = float64(t.sleeps.Load()) / n
	vals["plfs.cpu_model_vs"] = float64(t.sleepNS.Load()) / 1e9 / n
}

// scaled returns xs multiplied by f, for diagnostics.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func overhead(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return median(traced)/u - 1
}

// loadReferences parses the embedded reference outputs.
func loadReferences() (references, error) {
	refs := references{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference outputs: %w", err)
	}
	return refs, nil
}

// recordReference merges one seed's outputs into the reference file.
func recordReference(path, workload string, seed int64, out simOutputs) error {
	refs := references{}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if refs[workload] == nil {
		refs[workload] = map[string]simOutputs{}
	}
	refs[workload][strconv.FormatInt(seed, 10)] = out
	data, err = json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// simBench measures a simulated workload.
func simBench(cfg config, spec simSpec) (result, error) {
	refs, err := loadReferences()
	if err != nil {
		return result{}, err
	}
	ref, hasRef := refs[cfg.workload][strconv.FormatInt(cfg.seed, 10)]
	if cfg.setupOnly {
		return setupResult(cfg), nil
	}
	if cfg.recordTo != "" {
		return recordSim(cfg, spec)
	}
	setup := time.Since(cfg.t0)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	prof := newProfiler()
	tr := &tracer{}
	var runs []simRun
	var untracedNS, tracedNS, allocs []float64
	var last simRun
	for i := 0; ; i++ {
		var r simRun
		if schedule(cfg.trace, i) {
			if err := prof.profile(func() { r = runSim(spec, cfg.seed, tr) }); err != nil {
				return result{}, err
			}
			tracedNS = append(tracedNS, float64(r.hostNS))
			last = r
		} else {
			r = runSim(spec, cfg.seed, nil)
			untracedNS = append(untracedNS, float64(r.hostNS))
			allocs = append(allocs, float64(r.alloc))
		}
		runs = append(runs, r)
		if done(cfg, deadline, i) {
			break
		}
	}
	want := ref
	if !hasRef {
		want = runs[0].out
	}
	failed := 0
	for i, why := range judge(runs, want, hasRef) {
		if len(why) > 0 {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d run %d failed: %v\n", cfg.workload, cfg.seed, i, why)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d runs (%d traced), reference: %v, untraced host_s %.3f, traced %.3f\n",
		cfg.workload, cfg.seed, len(runs), len(tracedNS), hasRef, scaled(untracedNS, 1e-9), scaled(tracedNS, 1e-9))
	res := result{Correct: failed == 0, Attempted: len(runs), Failed: failed}
	if !cfg.trace {
		res.Metrics = endToEnd(setup, untracedNS, allocs, len(runs), failed)
		return res, nil
	}
	vals := map[string]float64{}
	prof.values(vals)
	tr.values(vals, prof.iters)
	vals["plfs.index_entries"] = float64(last.open.RawEntries)
	vals["plfs.droppings"] = float64(last.open.Droppings)
	vals["pfs.mds_busy_vs"] = last.out["mds_busy_ns"] / 1e9
	vals["pfs.mdsread_busy_vs"] = last.out["mdsread_busy_ns"] / 1e9
	vals["pfs.mds_skew"] = last.out["mds_skew"]
	vals["pfs.meta_ops"] = last.out["meta_ops"]
	vals["pfs.disk_mb"] = last.out["disk_bytes"] / (1 << 20)
	vals["pfs.net_mb"] = last.out["net_bytes"] / (1 << 20)
	vals["sim.end_vs"] = last.out["end_ns"] / 1e9
	vals["trace.overhead_frac"] = overhead(tracedNS, untracedNS)
	res.Metrics = layerMetrics(vals)
	return res, nil
}

// judge lists, for each simulated run, why it failed: an error, blocks
// that failed read-back verification, or simulated outputs that differ
// from want.  A run that passed has an empty list.
func judge(runs []simRun, want simOutputs, hasRef bool) [][]string {
	against := "first run"
	if hasRef {
		against = "recorded reference"
	}
	out := make([][]string, len(runs))
	for i, r := range runs {
		if r.err != nil {
			out[i] = append(out[i], r.err.Error())
		}
		if r.failed > 0 {
			out[i] = append(out[i], fmt.Sprintf("%d of %d blocks failed read-back verification", r.failed, r.checked))
		}
		if d := r.out.diff(want); len(d) > 0 {
			out[i] = append(out[i], fmt.Sprintf("simulated outputs differ from the %s on %v", against, d))
		}
	}
	return out
}

// recordSim runs the seed untraced and traced, requires the two to agree
// and pass verification, and records the outputs.
func recordSim(cfg config, spec simSpec) (result, error) {
	u := runSim(spec, cfg.seed, nil)
	t := runSim(spec, cfg.seed, &tracer{})
	for _, r := range []simRun{u, t} {
		if r.err != nil {
			return result{}, r.err
		}
		if r.failed > 0 {
			return result{}, fmt.Errorf("%d blocks failed read-back verification", r.failed)
		}
	}
	if d := t.out.diff(u.out); len(d) > 0 {
		return result{}, fmt.Errorf("traced run differs from untraced on %v", d)
	}
	if err := recordReference(cfg.recordTo, cfg.workload, cfg.seed, u.out); err != nil {
		return result{}, err
	}
	return result{Correct: true, Attempted: 2, Metrics: map[string]metric{}}, nil
}

// restartBench measures the osfs-restart workload.  It runs on one P:
// with two, garbage-collector overshoot under the ranks' parallel
// allocation moves this small process's peak RSS by a third from run to
// run, more than any bound the benchmark may set.
func restartBench(cfg config) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := newRestartWorkload(cfg.seed, cfg.workDir)
	if err != nil {
		return result{}, err
	}
	defer w.cleanup()
	if cfg.setupOnly {
		return setupResult(cfg), nil
	}
	setup := time.Since(cfg.t0)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	prof := newProfiler()
	tr := &tracer{hostTiming: true}
	var hostNS, tracedNS, allocs []float64
	// Latency samples are kept in fixed buffers, allocated here, so the
	// benchmark's own memory does not grow with the run and move
	// peak_rss_mb.  The first samples of a run fill them.
	openNS := make([]float64, 0, maxOpenSamples)
	readNS := make([]float64, 0, maxReadSamples)
	var writeNS int64
	var writes, attempted, failed int
	var last restartIter
	for i := 0; ; i++ {
		var it restartIter
		if schedule(cfg.trace, i) {
			if err := prof.profile(func() { it = w.iterate(tr) }); err != nil {
				return result{}, err
			}
			tracedNS = append(tracedNS, float64(it.hostNS))
			last = it
		} else {
			it = w.iterate(nil)
			hostNS = append(hostNS, float64(it.hostNS))
			allocs = append(allocs, float64(it.alloc))
			openNS = appendCapped(openNS, it.openNS)
			readNS = appendCapped(readNS, it.readNS)
			writeNS += it.writeNS
			writes++
		}
		attempted += it.attempted
		failed += it.failed
		for _, err := range it.errs {
			fmt.Fprintln(os.Stderr, "perfbench: osfs-restart:", err)
		}
		// Enough samples for the reported percentiles, and time is up.
		if tailFits(len(openNS), 95) && tailFits(len(readNS), 99) && done(cfg, deadline, i) {
			break
		}
	}
	lat := latencies(openNS, readNS)
	fmt.Fprintf(os.Stderr, "perfbench: osfs-restart seed %d: %d iterations, open_ms p50 %.3f p95 %.3f (n=%d, highest supported p%g), read_us p50 %.2f p99 %.2f (n=%d, highest supported p%g)\n",
		cfg.seed, len(hostNS)+len(tracedNS), lat["open_ms_p50"], lat["open_ms_p95"], len(openNS), highestPercentile(len(openNS)),
		lat["read_us_p50"], lat["read_us_p99"], len(readNS), highestPercentile(len(readNS)))
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if !cfg.trace {
		res.Metrics = endToEnd(setup, hostNS, allocs, attempted, failed)
		return res, nil
	}
	vals := lat
	vals["write_mb_s"] = float64(writes) * float64(w.size()) / (1 << 20) / (float64(writeNS) / 1e9)
	prof.values(vals)
	tr.values(vals, prof.iters)
	vals["plfs.self_host_s"] = float64(tr.plfsHostNS.Load()-tr.beHostNS.Load()-tr.mpiHostNS.Load()) / 1e9 / float64(prof.iters)
	vals["plfs.index_entries"] = float64(last.open.RawEntries)
	vals["plfs.droppings"] = float64(last.open.Droppings)
	vals["trace.overhead_frac"] = overhead(tracedNS, hostNS)
	res.Metrics = layerMetrics(vals)
	return res, nil
}

// Latency sample buffer sizes: enough for the percentile rule at p95
// (opens) and p99 (reads) many times over.
const (
	maxOpenSamples = 4096
	maxReadSamples = 65536
)

// appendCapped appends as much of xs as fits in dst's capacity.
func appendCapped(dst, xs []float64) []float64 {
	return append(dst, xs[:min(len(xs), cap(dst)-len(dst))]...)
}

// latencies summarizes the open and read latency samples (nanoseconds),
// sorting them in place.  A percentile the sample count does not support
// under the percentile rule is left out.
func latencies(openNS, readNS []float64) map[string]float64 {
	vals := map[string]float64{
		"open.samples": float64(len(openNS)),
		"read.samples": float64(len(readNS)),
	}
	put := func(name string, xs []float64, p, scale float64) {
		if v, ok := percentile(xs, p); ok {
			vals[name] = v / scale
		}
	}
	put("open_ms_p50", openNS, 50, 1e6)
	put("open_ms_p95", openNS, 95, 1e6)
	put("read_us_p50", readNS, 50, 1e3)
	put("read_us_p99", readNS, 99, 1e3)
	return vals
}
