package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime/pprof"
	"sort"
	"time"
	"unsafe"

	"plfs/internal/adio"
	"plfs/internal/harness"
	"plfs/internal/mpi"
	"plfs/internal/payload"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

// Simulated workload sizes (see README.md for why these were chosen).
const (
	simRanks = 4096

	n1BytesPerRank = 1 << 20  // plfsrun -mb 1
	n1OpSize       = 64 << 10 // plfsrun -opkb 64

	stormContainers = 5
	stormRounds     = 3
	stormVolumes    = 4
)

// simSpec describes one simulated workload: the job it hands the harness
// and, for data workloads, the block size its writes and reads use.
type simSpec struct {
	kernel workloads.Kernel
	job    func(seed int64) harness.Job
	// blocks and blockSize size the read-back capture; zero for
	// metadata-only workloads.
	blocks    int
	blockSize int64
}

func n1Spec(ranks int) simSpec {
	cfg := pfs.SmallCluster()
	return simSpec{
		kernel: workloads.MPIIOTest(n1BytesPerRank, n1OpSize),
		job: func(seed int64) harness.Job {
			// The mount and hints plfsrun builds for
			// `-kernel mpi-io-test -mb 1 -opkb 64 -plfs`.  Verify is off
			// because the benchmark checks every read itself, outside the
			// timed region.
			return harness.Job{
				Seed: seed, Ranks: ranks, Cfg: cfg, Net: mpi.DefaultNet(),
				Opt: plfs.Options{
					IndexMode: plfs.ParallelIndexRead, NumSubdirs: 32,
					Retry: plfs.RetryPolicy{Attempts: 1},
				},
				Hints:   adio.Hints{ProcsPerNode: cfg.ProcsPerNode},
				UsePLFS: true, ReadBack: true, DropCaches: true,
				Backend: harness.BackendPosix,
			}
		},
		blocks:    ranks * int(n1BytesPerRank/n1OpSize),
		blockSize: n1OpSize,
	}
}

func stormSpec(ranks int) simSpec {
	cfg := pfs.SmallCluster()
	cfg.Volumes = stormVolumes
	return simSpec{
		kernel: workloads.CreateStorm100k{Containers: stormContainers, Rounds: stormRounds},
		job: func(seed int64) harness.Job {
			// The mount harness.RunMetaStorm builds with BulkCreate on
			// and rebalancing off.
			return harness.Job{
				Seed: seed, Ranks: ranks, Cfg: cfg, Net: mpi.DefaultNet(),
				Opt: plfs.Options{
					IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
					SpreadContainers: true, BulkCreate: true,
				},
				UsePLFS: true, Backend: harness.BackendPosix,
			}
		},
	}
}

// capture records what one simulated job wrote and read, so the
// benchmark can verify the data after the timed region, and the reader
// statistics of rank 0's read open.
type capture struct {
	blockSize int64
	writes    []payload.Payload
	reads     []payload.List
	// unexpected counts reads and writes that are not one whole block;
	// any makes verification fail.  Other access methods go uncaptured,
	// which verification catches as blocks never written or read.
	unexpected int
	endVT      int64 // rank 0's virtual time when its kernel returned
	open       plfs.OpenStats
}

func newCapture(blocks int, blockSize int64) *capture {
	return &capture{
		blockSize: blockSize,
		writes:    make([]payload.Payload, blocks),
		reads:     make([]payload.List, blocks),
	}
}

// block maps an access to its block index, or -1 if it is not exactly
// one whole block.
func (c *capture) block(off, n int64) int {
	if c.blockSize == 0 || off%c.blockSize != 0 || n != c.blockSize || off/c.blockSize >= int64(len(c.writes)) {
		return -1
	}
	return int(off / c.blockSize)
}

// verify checks that every block was written exactly as a whole block
// and read back with exactly the bytes written.  It returns the number
// of blocks checked and the number that failed.
func (c *capture) verify() (checked, failed int) {
	if c.unexpected > 0 {
		failed++
	}
	for b := range c.writes {
		checked++
		w, r := c.writes[b], c.reads[b]
		if w.Len() != c.blockSize || r == nil || !payload.ContentEqual(r, payload.List{w}) {
			failed++
		}
	}
	return checked, failed
}

// benchKernel wraps the workload's kernel: it swaps in the capturing
// driver, wraps the rank's context when tracing, and notes rank 0's
// virtual end time.
type benchKernel struct {
	inner workloads.Kernel
	cap   *capture
	tr    *tracer // nil when untraced
}

func (k *benchKernel) Name() string { return k.inner.Name() }

func (k *benchKernel) Run(env *workloads.Env, readBack bool) (workloads.Result, error) {
	if k.tr != nil {
		env.Ctx = k.tr.wrapCtx(env.Ctx)
	}
	rank := env.Rank()
	env.Driver = captureDriver{inner: env.Driver, cap: k.cap, rank0: rank == 0}
	res, err := k.inner.Run(env, readBack)
	if rank == 0 {
		k.cap.endVT = env.Ctx.Clock.Now()
	}
	return res, err
}

type captureDriver struct {
	inner adio.Driver
	cap   *capture
	rank0 bool
}

func (d captureDriver) Name() string { return d.inner.Name() }

func (d captureDriver) Open(ctx plfs.Ctx, path string, mode adio.Mode, hints adio.Hints) (adio.File, error) {
	f, err := d.inner.Open(ctx, path, mode, hints)
	if err != nil {
		return nil, err
	}
	if mode == adio.ReadOnly && d.rank0 {
		if r := readerOf(f); r != nil {
			d.cap.open = r.Stats
		}
	}
	if d.cap.blockSize == 0 {
		return f, nil
	}
	return &captureFile{File: f, cap: d.cap}, nil
}

// readerOf finds the *plfs.Reader behind an adio file: adio does not
// export the read-open statistics, so the benchmark looks for the one
// field of that type.  It returns nil if the file holds none.
func readerOf(f adio.File) *plfs.Reader {
	v := reflect.ValueOf(f)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return nil
	}
	v = v.Elem()
	want := reflect.TypeOf((*plfs.Reader)(nil))
	for i := 0; i < v.NumField(); i++ {
		if fv := v.Field(i); fv.Type() == want {
			return *(**plfs.Reader)(unsafe.Pointer(fv.UnsafeAddr()))
		}
	}
	return nil
}

// captureFile records whole-block writes and reads.
type captureFile struct {
	adio.File
	cap *capture
}

func (f *captureFile) WriteAt(off int64, p payload.Payload) error {
	if b := f.cap.block(off, p.Len()); b >= 0 {
		f.cap.writes[b] = p
	} else {
		f.cap.unexpected++
	}
	return f.File.WriteAt(off, p)
}

func (f *captureFile) ReadAt(off, n int64) (payload.List, error) {
	got, err := f.File.ReadAt(off, n)
	if b := f.cap.block(off, n); b >= 0 && err == nil {
		f.cap.reads[b] = got
	} else if err == nil {
		f.cap.unexpected++
	}
	return got, err
}

// simOutputs are a simulated job's results: virtual times in
// nanoseconds, counts, and the file system's resource report.  They are
// a pure function of the seed, so any difference between two runs of one
// seed is a failure.
type simOutputs map[string]float64

func outputsOf(res workloads.Result, rep pfs.Report, endVT int64) simOutputs {
	o := simOutputs{
		"write_open_ns":  float64(res.WriteOpen),
		"write_ns":       float64(res.Write),
		"write_close_ns": float64(res.WriteClose),
		"read_open_ns":   float64(res.ReadOpen),
		"read_ns":        float64(res.Read),
		"read_close_ns":  float64(res.ReadClose),
		"end_ns":         float64(endVT),
		"meta_ops":       float64(rep.MetaOps),
		"lock_ops":       float64(rep.LockOps),
		"seek_ops":       float64(rep.SeekOps),
		"bulk_batches":   float64(rep.BulkBatches),
		"bulk_ops":       float64(rep.BulkOps),
		"net_bytes":      float64(rep.NetBytes),
		"disk_bytes":     float64(rep.DiskBytes),
		"cache_hit_pct":  rep.CacheHitPct,
		"mds_skew":       mdsSkew(rep.MDSBusy),
	}
	var busy, readBusy float64
	for v, d := range rep.MDSBusy {
		o[fmt.Sprintf("mds_busy_ns.vol%d", v)] = float64(d)
		busy += float64(d)
	}
	for v, d := range rep.MDSReadBusy {
		o[fmt.Sprintf("mdsread_busy_ns.vol%d", v)] = float64(d)
		readBusy += float64(d)
	}
	o["mds_busy_ns"] = busy
	o["mdsread_busy_ns"] = readBusy
	return o
}

// mdsSkew is max/median per-volume MDS busy time, computed as
// harness.RunMetaStorm reports it (1 when there is nothing to compare).
func mdsSkew(busy []time.Duration) float64 {
	if len(busy) < 2 {
		return 1
	}
	secs := make([]float64, len(busy))
	for i, d := range busy {
		secs[i] = d.Seconds()
	}
	sort.Float64s(secs)
	hi, med := secs[len(secs)-1], secs[len(secs)/2]
	switch {
	case hi <= 0:
		return 1
	case med <= 0:
		return hi / 1e-9
	}
	return hi / med
}

// diff lists the keys on which two output sets differ.
func (o simOutputs) diff(want simOutputs) []string {
	var bad []string
	for k, v := range want {
		if got, ok := o[k]; !ok || got != v {
			bad = append(bad, k)
		}
	}
	for k := range o {
		if _, ok := want[k]; !ok {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}

// simRun is one simulated job's outcome.
type simRun struct {
	out     simOutputs
	hostNS  int64
	alloc   uint64
	err     error
	checked int // blocks verified
	failed  int // blocks that failed verification
	open    plfs.OpenStats
	report  pfs.Report
}

// runSim executes one simulated job.  Only harness.RunWithReport is
// timed; verification runs afterwards under the benchmark's profile
// label.
func runSim(spec simSpec, seed int64, tr *tracer) simRun {
	c := newCapture(spec.blocks, spec.blockSize)
	job := spec.job(seed)
	job.Kernel = &benchKernel{inner: spec.kernel, cap: c, tr: tr}
	var r simRun
	var res workloads.Result
	r.hostNS, r.alloc = timed(func() {
		res, r.report, r.err = harness.RunWithReport(job)
	})
	r.out = outputsOf(res, r.report, c.endVT)
	r.open = c.open
	if spec.blockSize > 0 {
		pprof.Do(context.Background(), pprof.Labels(benchLabel, "verify"), func(context.Context) {
			r.checked, r.failed = c.verify()
		})
	}
	return r
}
