package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"plfs/internal/harness"
	"plfs/internal/payload"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if v, ok := percentile(xs, 50); !ok || v != 100 {
		t.Errorf("p50 of 1..200 = %g, %v", v, ok)
	}
	if v, ok := percentile(xs, 95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %g, %v", v, ok)
	}
	if _, ok := percentile(xs[:199], 95); ok {
		t.Error("p95 reported from 199 samples, which leave fewer than 10 beyond it")
	}
	if _, ok := percentile(xs, 99); ok {
		t.Error("p99 reported from 200 samples")
	}
	vals := latencies(xs[:150], xs)
	if _, ok := vals["open_ms_p95"]; ok {
		t.Error("latencies reported open p95 from 150 samples")
	}
	if vals["open.samples"] != 150 || vals["read.samples"] != 200 {
		t.Errorf("sample counts %v", vals)
	}
}

func TestCaptureVerify(t *testing.T) {
	const blk = 8
	c := newCapture(4, blk)
	for b := 0; b < 4; b++ {
		off := int64(b * blk)
		c.writes[b] = payload.Synthetic(uint64(b%2)+1, off, blk)
		c.reads[b] = payload.List{payload.Synthetic(uint64(b%2)+1, off, blk)}
	}
	if checked, failed := c.verify(); checked != 4 || failed != 0 {
		t.Fatalf("clean capture: %d checked, %d failed", checked, failed)
	}
	c.reads[2] = payload.List{payload.Synthetic(9, 16, blk)} // another writer's bytes
	if _, failed := c.verify(); failed != 1 {
		t.Errorf("corrupted read: %d failed, want 1", failed)
	}
	c.reads[3] = nil // never read back
	if _, failed := c.verify(); failed != 2 {
		t.Errorf("missing read: %d failed, want 2", failed)
	}
	if c.block(4, blk) != -1 || c.block(0, blk-1) != -1 || c.block(32, blk) != -1 {
		t.Error("partial or out-of-range access mapped to a block")
	}
}

// TestFailuresCounted checks that fail counting catches a corrupted read
// and a perturbed simulated reference, and that ok_frac reflects them.
func TestFailuresCounted(t *testing.T) {
	spec := n1Spec(16)
	good := runSim(spec, 3, nil)
	if good.err != nil || good.failed != 0 {
		t.Fatalf("clean run: err %v, %d failed blocks", good.err, good.failed)
	}
	if why := judge([]simRun{good, good}, good.out, true); len(why[0])+len(why[1]) != 0 {
		t.Fatalf("clean runs judged failed: %v", why)
	}
	corrupt := good
	corrupt.failed = 1
	perturbed := simOutputs{}
	for k, v := range good.out {
		perturbed[k] = v
	}
	perturbed["read_open_ns"]++
	why := judge([]simRun{good, corrupt}, good.out, true)
	if len(why[0]) != 0 || len(why[1]) != 1 {
		t.Errorf("corrupted read judged %v", why)
	}
	why = judge([]simRun{good, good}, perturbed, true)
	if len(why[0]) != 1 || len(why[1]) != 1 {
		t.Errorf("perturbed reference judged %v", why)
	}
	m := endToEnd(time.Second, []float64{1}, []float64{1}, 4, 1)
	if m["ok_frac"].Value != 0.75 {
		t.Errorf("ok_frac %g, want 0.75", m["ok_frac"].Value)
	}
}

// TestTracedMatchesUntraced is the wrapper-forwarding proof at small
// scale: wrapping every interface must not change any simulated output.
func TestTracedMatchesUntraced(t *testing.T) {
	for name, spec := range map[string]simSpec{"n1": n1Spec(64), "storm": stormSpec(64)} {
		tr := &tracer{}
		u, tt := runSim(spec, 5, nil), runSim(spec, 5, tr)
		for _, r := range []simRun{u, tt} {
			if r.err != nil || r.failed != 0 {
				t.Fatalf("%s: err %v, %d failed blocks", name, r.err, r.failed)
			}
		}
		if d := tt.out.diff(u.out); len(d) > 0 {
			t.Errorf("%s: traced run differs on %v", name, d)
		}
		if tr.beOps[opCreate].Load()+tr.beOps[opBulk].Load() == 0 || tr.mpiCalls[collBarrier].Load() == 0 {
			t.Errorf("%s: wrappers saw no creates or barriers", name)
		}
	}
}

// TestStormMatchesHarness checks that the meta-storm job the benchmark
// builds is the one harness.RunMetaStorm runs.
func TestStormMatchesHarness(t *testing.T) {
	r := runSim(stormSpec(64), 7, nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	rep, err := harness.RunMetaStorm(harness.MetaStormJob{Seed: 7, Ranks: 64, BulkCreate: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.out["write_open_ns"] != float64(rep.OpenTime) || r.out["mds_skew"] != rep.Skew ||
		r.out["end_ns"] != float64(rep.Makespan) {
		t.Errorf("benchmark storm: open %v skew %v end %v; harness: open %v skew %v makespan %v",
			r.out["write_open_ns"], r.out["mds_skew"], r.out["end_ns"], float64(rep.OpenTime), rep.Skew, float64(rep.Makespan))
	}
}

func TestRestartIteration(t *testing.T) {
	w, err := newRestartWorkload(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.cleanup()
	tr := &tracer{hostTiming: true}
	for _, it := range []restartIter{w.iterate(nil), w.iterate(tr)} {
		if it.failed != 0 {
			t.Fatalf("iteration failed: %v", it.errs)
		}
		if len(it.openNS) != restartRanks*restartsPerIter || len(it.readNS) != restartRanks*restartsPerIter*readsPerRestart {
			t.Errorf("%d open and %d read samples", len(it.openNS), len(it.readNS))
		}
		if it.open.RawEntries < restartRanks*restartBlocksRank/2 {
			t.Errorf("index has %d entries: shuffled writes should defeat run compression", it.open.RawEntries)
		}
	}
	if tr.beOps[opAppend].Load() == 0 || tr.beHostNS.Load() == 0 || tr.plfsHostNS.Load() == 0 {
		t.Error("traced iteration recorded no backend or plfs time")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(time.Second, []float64{1}, []float64{1}, 1, 0)
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program reports %+v", m.Name, m.Unit, got)
		}
	}
	layer := perLayer()
	if len(spec.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(layer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layer[i][0] || m.Unit != layer[i][1] {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, layer[i][0], layer[i][1])
		}
	}
	known := map[string]bool{"n1-strided-4k": true, "meta-storm-4k": true, "osfs-restart": true}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("unknown workload %s", w.Name)
		}
	}
}
