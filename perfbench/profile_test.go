package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		labels map[string]string
		want   string
	}{
		{"innermost module frame wins", []string{
			"runtime.chansend1", "plfs/internal/sim.(*Proc).Sleep",
			"plfs/internal/simfs.file.ReadAt", "plfs/internal/plfs.(*Reader).aggregateParallel",
		}, nil, "sim"},
		{"standard library leaf", []string{
			"sync.(*Mutex).Lock", "syscall.Syscall", "plfs/internal/osfs.(*file).ReadAt", "main.(*tracedFile).ReadAt",
		}, nil, "osfs"},
		{"wrapper calling into a layer", []string{
			"plfs/internal/simfs.Backend.Create", "main.(*tracedBackend).Create", "plfs/internal/plfs.(*Mount).Create",
		}, nil, "simfs"},
		{"wrapper's own work", []string{
			"time.Now", "main.(*tracer).start", "plfs/internal/plfs.(*Writer).Close",
		}, nil, bucketBench},
		{"closure and generic names", []string{
			"plfs/internal/mpi.(*Comm).Bcast.func1", "plfs/internal/payload.Resolve[...]",
		}, nil, "mpi"},
		{"module package that is not a layer", []string{
			"plfs/internal/workloads.stridedN1.Run", "plfs/internal/harness.RunWithReport.func1",
		}, nil, bucketOther},
		{"subpackage counts as its parent", []string{
			"plfs/internal/plfs/backendtest.Run",
		}, nil, "plfs"},
		{"GC background worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack",
		}, nil, bucketGC},
		{"GC assist charged to gc, not the allocating layer", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc", "plfs/internal/plfs.BuildIndexRecs",
		}, nil, bucketGC},
		{"runtime-only scheduler stack", []string{
			"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, nil, bucketSched},
		{"benchmark label overrides the payload frame", []string{
			"plfs/internal/payload.ContentEqual", "main.(*capture).verify",
		}, map[string]string{benchLabel: "verify"}, bucketBench},
	}
	for _, c := range cases {
		if got := attribute(c.frames, c.labels, bucketSched); got != c.want {
			t.Errorf("%s: attributed to %q, want %q", c.name, got, c.want)
		}
	}
	if got := attribute([]string{"runtime.malg", "runtime.newproc1"}, nil, bucketRuntime); got != bucketRuntime {
		t.Errorf("runtime-only allocation attributed to %q", got)
	}
}

// pb builds protobuf messages for the decoder test.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(field int, p []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(p))))
	b.Write(p)
}

func (b *pb) packed(field int, vs ...uint64) {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	b.bytesField(field, body)
}

// TestParseProfileEncodings decodes a hand-built profile that mixes the
// packed and one-per-field encodings of repeated fields, inlined frames
// and a label.
func TestParseProfileEncodings(t *testing.T) {
	var p pb
	strs := []string{"", "cpu", "nanoseconds", "plfs/internal/payload.ContentEqual",
		"plfs/internal/plfs.(*Reader).ReadAt", "runtime.findRunnable", benchLabel, "verify"}
	var st pb
	st.varint(1, 1)
	st.varint(2, 2)
	p.bytesField(1, st.Bytes())
	// Sample 1: one location holding two lines (ContentEqual inlined
	// into ReadAt), values packed, locations one per field.
	var s1 pb
	s1.varint(1, 10)
	s1.packed(2, 7)
	p.bytesField(2, s1.Bytes())
	// Sample 2: runtime-only, carrying the benchmark label.
	var s2, lab pb
	s2.packed(1, 20, 20, 20)
	s2.varint(2, 5)
	lab.varint(1, 6)
	lab.varint(2, 7)
	s2.bytesField(3, lab.Bytes())
	p.bytesField(2, s2.Bytes())
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.varint(1, id)
		for _, fn := range fns {
			var ln pb
			ln.varint(1, fn)
			l.bytesField(4, ln.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	loc(10, 1, 2)
	loc(20, 3)
	fn := func(id, name uint64) {
		var f pb
		f.varint(1, id)
		f.varint(2, name)
		p.bytesField(5, f.Bytes())
	}
	fn(1, 3)
	fn(2, 4)
	fn(3, 5)
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}

	prof, err := parseProfile(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) != 2 {
		t.Fatalf("decoded %d samples, want 2", len(prof.samples))
	}
	if got := prof.samples[0].frames; len(got) != 2 || got[0] != strs[3] || got[1] != strs[4] {
		t.Errorf("sample 1 frames %v", got)
	}
	if got := prof.samples[1].frames; len(got) != 3 {
		t.Errorf("sample 2 frames %v", got)
	}
	b, err := prof.buckets("cpu", bucketSched)
	if err != nil {
		t.Fatal(err)
	}
	if b["payload"] != 7 || b[bucketBench] != 5 || len(b) != 2 {
		t.Errorf("buckets %v, want payload 7 and bench 5", b)
	}
	if _, err := parseProfile(p.Bytes()[:p.Len()-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

var sink []byte

//go:noinline
func allocateInBench(n int) {
	for i := 0; i < n; i++ {
		sink = make([]byte, 1<<20)
	}
}

// TestRuntimeProfiles checks the decoder against profiles the runtime
// writes: allocations made here are charged to the benchmark, and CPU
// time spent under the benchmark label too.
func TestRuntimeProfiles(t *testing.T) {
	before, err := allocBuckets()
	if err != nil {
		t.Fatal(err)
	}
	allocateInBench(64)
	after, err := allocBuckets()
	if err != nil {
		t.Fatal(err)
	}
	if got := after[bucketBench] - before[bucketBench]; got < 16<<20 {
		t.Errorf("benchmark allocations %d bytes, want most of 64 MiB", got)
	}

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels(benchLabel, "test"), func(context.Context) {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			runtime.Gosched()
		}
	})
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := prof.buckets("cpu", bucketSched)
	if err != nil {
		t.Fatal(err)
	}
	if cpu[bucketBench] == 0 {
		t.Errorf("no labelled CPU samples attributed to the benchmark: %v", cpu)
	}
}
