package main

import (
	"sync/atomic"
	"time"

	"plfs/internal/comm"
	"plfs/internal/extent"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// Collective kinds counted by the comm wrapper.
const (
	collBarrier = iota
	collBcast
	collGather
	collScatter
	collAllgather
	collAlltoall
	collSplit
	numColl
)

var collNames = [numColl]string{"barrier", "bcast", "gather", "scatter", "allgather", "alltoall", "split"}

// Backend operation kinds counted by the backend wrapper.  "append"
// covers every data write (Append, Appendv, WriteAt, WritevAt) and
// "other" the namespace and bookkeeping calls the issue's list omits
// (Remove, Rename, conditional PUTs, Close, range locks).
const (
	opCreate = iota
	opMkdir
	opOpen
	opAppend
	opRead
	opReadDir
	opStat
	opBulk
	opOther
	numOp
)

var opNames = [numOp]string{"create", "mkdir", "open", "append", "read", "readdir", "stat", "bulk", "other"}

// tracer accumulates what the traced run's wrappers see.  Wrapped values
// are called from several goroutines at once on the osfs path (the rank
// goroutines and the reader's fan-out pool), so every field is atomic.
type tracer struct {
	// hostTiming enables host-clock timing of wrapped calls.  It is off on
	// the simulator: a simulated process that blocks inside a call yields
	// to the others, so the call's wall time would include their work.
	hostTiming bool

	mpiCalls  [numColl]atomic.Int64
	mpiBytes  atomic.Int64
	mpiWaitNS atomic.Int64 // virtual time inside collectives
	mpiHostNS atomic.Int64

	beOps      [numOp]atomic.Int64
	beErrors   atomic.Int64
	beWaitNS   atomic.Int64 // virtual time inside backend calls
	beHostNS   atomic.Int64
	sleeps     atomic.Int64
	sleepNS    atomic.Int64 // virtual CPU charged through plfs.Sleeper
	plfsHostNS atomic.Int64 // host time in the benchmark's own calls into plfs
}

// stamp is the start of one wrapped call on both clocks.
type stamp struct {
	vt   int64
	host time.Time
}

func (t *tracer) start(clock plfs.Clock) stamp {
	var s stamp
	if clock != nil {
		s.vt = clock.Now()
	}
	if t.hostTiming {
		s.host = time.Now()
	}
	return s
}

// elapsed returns the virtual and host nanoseconds since s.
func (t *tracer) elapsed(clock plfs.Clock, s stamp) (vt, host int64) {
	if clock != nil {
		vt = clock.Now() - s.vt
	}
	if t.hostTiming {
		host = int64(time.Since(s.host))
	}
	return vt, host
}

func (t *tracer) endColl(kind int, nbytes int64, clock plfs.Clock, s stamp) {
	vt, host := t.elapsed(clock, s)
	t.mpiCalls[kind].Add(1)
	t.mpiBytes.Add(nbytes)
	t.mpiWaitNS.Add(vt)
	t.mpiHostNS.Add(host)
}

func (t *tracer) endOp(kind int, err error, clock plfs.Clock, s stamp) {
	vt, host := t.elapsed(clock, s)
	t.beOps[kind].Add(1)
	if err != nil {
		t.beErrors.Add(1)
	}
	t.beWaitNS.Add(vt)
	t.beHostNS.Add(host)
}

// plfsCall times one call the benchmark makes into plfs (osfs path only).
func (t *tracer) plfsCall(start time.Time) {
	if t != nil {
		t.plfsHostNS.Add(int64(time.Since(start)))
	}
}

// wrapCtx returns ctx with its communicator, volumes and sleeper wrapped.
// Nil members stay nil: plfs reads a nil Comm as serial mode and a nil
// Sleeper as "no CPU charge", and a wrapper must not change either.
func (t *tracer) wrapCtx(ctx plfs.Ctx) plfs.Ctx {
	if ctx.Comm != nil {
		ctx.Comm = &tracedComm{c: ctx.Comm, t: t, clock: ctx.Clock}
	}
	vols := make([]plfs.Backend, len(ctx.Vols))
	for i, b := range ctx.Vols {
		vols[i] = t.wrapBackend(b, ctx.Clock)
	}
	ctx.Vols = vols
	if ctx.Sleep != nil {
		ctx.Sleep = tracedSleeper{s: ctx.Sleep, t: t}
	}
	return ctx
}

// ---- comm.Comm ------------------------------------------------------------

type tracedComm struct {
	c     comm.Comm
	t     *tracer
	clock plfs.Clock
}

func (w *tracedComm) Rank() int { return w.c.Rank() }
func (w *tracedComm) Size() int { return w.c.Size() }

func (w *tracedComm) Barrier() {
	s := w.t.start(w.clock)
	w.c.Barrier()
	w.t.endColl(collBarrier, 0, w.clock, s)
}

func (w *tracedComm) Bcast(root int, nbytes int64, v any) any {
	s := w.t.start(w.clock)
	out := w.c.Bcast(root, nbytes, v)
	w.t.endColl(collBcast, nbytes, w.clock, s)
	return out
}

func (w *tracedComm) Gather(root int, nbytes int64, v any) []any {
	s := w.t.start(w.clock)
	out := w.c.Gather(root, nbytes, v)
	w.t.endColl(collGather, nbytes, w.clock, s)
	return out
}

func (w *tracedComm) Scatter(root int, nbytesEach int64, vs []any) any {
	s := w.t.start(w.clock)
	out := w.c.Scatter(root, nbytesEach, vs)
	w.t.endColl(collScatter, nbytesEach, w.clock, s)
	return out
}

func (w *tracedComm) Allgather(nbytes int64, v any) []any {
	s := w.t.start(w.clock)
	out := w.c.Allgather(nbytes, v)
	w.t.endColl(collAllgather, nbytes, w.clock, s)
	return out
}

func (w *tracedComm) Alltoall(nbytes []int64, vs []any) []any {
	var total int64
	for _, n := range nbytes {
		total += n
	}
	s := w.t.start(w.clock)
	out := w.c.Alltoall(nbytes, vs)
	w.t.endColl(collAlltoall, total, w.clock, s)
	return out
}

func (w *tracedComm) Split(color, key int) comm.Comm {
	s := w.t.start(w.clock)
	sub := w.c.Split(color, key)
	w.t.endColl(collSplit, 0, w.clock, s)
	if sub == nil {
		return nil
	}
	return &tracedComm{c: sub, t: w.t, clock: w.clock}
}

// ---- plfs.Sleeper -----------------------------------------------------------

type tracedSleeper struct {
	s plfs.Sleeper
	t *tracer
}

func (w tracedSleeper) Sleep(d time.Duration) {
	w.t.sleeps.Add(1)
	w.t.sleepNS.Add(int64(d))
	w.s.Sleep(d)
}

// ---- plfs.Backend -----------------------------------------------------------

// Optional capabilities are forwarded exactly: the wrapper satisfies an
// optional interface if and only if the wrapped value does, because plfs
// picks its code path by type assertion and advertising a capability the
// store lacks (or hiding one it has) would change what is measured.
const (
	capConcurrent = 1 << iota
	capCondPut
	capBulk
)

type tracedBackend struct {
	b     plfs.Backend
	t     *tracer
	clock plfs.Clock
}

func (t *tracer) wrapBackend(b plfs.Backend, clock plfs.Clock) plfs.Backend {
	w := &tracedBackend{b: b, t: t, clock: clock}
	caps := 0
	if _, ok := b.(plfs.ConcurrentIO); ok {
		caps |= capConcurrent
	}
	if _, ok := b.(plfs.CondPutter); ok {
		caps |= capCondPut
	}
	if _, ok := b.(plfs.BulkCreator); ok {
		caps |= capBulk
	}
	c, p, k := concurrentIO{w}, condPutter{w}, bulkCreator{w}
	switch caps {
	case capConcurrent:
		return struct {
			*tracedBackend
			concurrentIO
		}{w, c}
	case capCondPut:
		return struct {
			*tracedBackend
			condPutter
		}{w, p}
	case capBulk:
		return struct {
			*tracedBackend
			bulkCreator
		}{w, k}
	case capConcurrent | capCondPut:
		return struct {
			*tracedBackend
			concurrentIO
			condPutter
		}{w, c, p}
	case capConcurrent | capBulk:
		return struct {
			*tracedBackend
			concurrentIO
			bulkCreator
		}{w, c, k}
	case capCondPut | capBulk:
		return struct {
			*tracedBackend
			condPutter
			bulkCreator
		}{w, p, k}
	case capConcurrent | capCondPut | capBulk:
		return struct {
			*tracedBackend
			concurrentIO
			condPutter
			bulkCreator
		}{w, c, p, k}
	}
	return w
}

func (w *tracedBackend) Mkdir(path string) error {
	s := w.t.start(w.clock)
	err := w.b.Mkdir(path)
	w.t.endOp(opMkdir, err, w.clock, s)
	return err
}

func (w *tracedBackend) Create(path string) (plfs.File, error) {
	s := w.t.start(w.clock)
	f, err := w.b.Create(path)
	w.t.endOp(opCreate, err, w.clock, s)
	return w.file(f, err)
}

func (w *tracedBackend) OpenRead(path string) (plfs.File, error) {
	s := w.t.start(w.clock)
	f, err := w.b.OpenRead(path)
	w.t.endOp(opOpen, err, w.clock, s)
	return w.file(f, err)
}

func (w *tracedBackend) OpenWrite(path string) (plfs.File, error) {
	s := w.t.start(w.clock)
	f, err := w.b.OpenWrite(path)
	w.t.endOp(opOpen, err, w.clock, s)
	return w.file(f, err)
}

func (w *tracedBackend) Stat(path string) (plfs.Info, error) {
	s := w.t.start(w.clock)
	fi, err := w.b.Stat(path)
	w.t.endOp(opStat, err, w.clock, s)
	return fi, err
}

func (w *tracedBackend) ReadDir(path string) ([]plfs.Info, error) {
	s := w.t.start(w.clock)
	ents, err := w.b.ReadDir(path)
	w.t.endOp(opReadDir, err, w.clock, s)
	return ents, err
}

func (w *tracedBackend) Remove(path string) error {
	s := w.t.start(w.clock)
	err := w.b.Remove(path)
	w.t.endOp(opOther, err, w.clock, s)
	return err
}

func (w *tracedBackend) Rename(oldPath, newPath string) error {
	s := w.t.start(w.clock)
	err := w.b.Rename(oldPath, newPath)
	w.t.endOp(opOther, err, w.clock, s)
	return err
}

type concurrentIO struct{ w *tracedBackend }

func (c concurrentIO) ConcurrentIO() bool { return c.w.b.(plfs.ConcurrentIO).ConcurrentIO() }

type condPutter struct{ w *tracedBackend }

func (c condPutter) PutIfAbsent(path string, data []byte) error {
	s := c.w.t.start(c.w.clock)
	err := c.w.b.(plfs.CondPutter).PutIfAbsent(path, data)
	c.w.t.endOp(opOther, err, c.w.clock, s)
	return err
}

func (c condPutter) PutReplace(path string, data []byte) error {
	s := c.w.t.start(c.w.clock)
	err := c.w.b.(plfs.CondPutter).PutReplace(path, data)
	c.w.t.endOp(opOther, err, c.w.clock, s)
	return err
}

type bulkCreator struct{ w *tracedBackend }

// CreateBulk counts one bulk op per batch and one error per failed entry.
func (c bulkCreator) CreateBulk(ops []plfs.BulkOp) []error {
	s := c.w.t.start(c.w.clock)
	errs := c.w.b.(plfs.BulkCreator).CreateBulk(ops)
	c.w.t.endOp(opBulk, nil, c.w.clock, s)
	for _, err := range errs {
		if err != nil {
			c.w.t.beErrors.Add(1)
		}
	}
	return errs
}

// ---- plfs.File --------------------------------------------------------------

const (
	capVectored = 1 << iota
	capBatchAppend
	capRangeLock
)

type tracedFile struct {
	f plfs.File
	w *tracedBackend
}

func (w *tracedBackend) file(f plfs.File, err error) (plfs.File, error) {
	if err != nil {
		return nil, err
	}
	tf := &tracedFile{f: f, w: w}
	caps := 0
	if _, ok := f.(plfs.VectoredIO); ok {
		caps |= capVectored
	}
	if _, ok := f.(plfs.BatchAppender); ok {
		caps |= capBatchAppend
	}
	if _, ok := f.(plfs.RangeLocker); ok {
		caps |= capRangeLock
	}
	v, a, l := vectoredIO{tf}, batchAppender{tf}, rangeLocker{tf}
	switch caps {
	case capVectored:
		return struct {
			*tracedFile
			vectoredIO
		}{tf, v}, nil
	case capBatchAppend:
		return struct {
			*tracedFile
			batchAppender
		}{tf, a}, nil
	case capRangeLock:
		return struct {
			*tracedFile
			rangeLocker
		}{tf, l}, nil
	case capVectored | capBatchAppend:
		return struct {
			*tracedFile
			vectoredIO
			batchAppender
		}{tf, v, a}, nil
	case capVectored | capRangeLock:
		return struct {
			*tracedFile
			vectoredIO
			rangeLocker
		}{tf, v, l}, nil
	case capBatchAppend | capRangeLock:
		return struct {
			*tracedFile
			batchAppender
			rangeLocker
		}{tf, a, l}, nil
	case capVectored | capBatchAppend | capRangeLock:
		return struct {
			*tracedFile
			vectoredIO
			batchAppender
			rangeLocker
		}{tf, v, a, l}, nil
	}
	return tf, nil
}

func (f *tracedFile) WriteAt(off int64, p payload.Payload) error {
	s := f.w.t.start(f.w.clock)
	err := f.f.WriteAt(off, p)
	f.w.t.endOp(opAppend, err, f.w.clock, s)
	return err
}

func (f *tracedFile) Append(p payload.Payload) (int64, error) {
	s := f.w.t.start(f.w.clock)
	off, err := f.f.Append(p)
	f.w.t.endOp(opAppend, err, f.w.clock, s)
	return off, err
}

func (f *tracedFile) ReadAt(off, n int64) (payload.List, error) {
	s := f.w.t.start(f.w.clock)
	pl, err := f.f.ReadAt(off, n)
	f.w.t.endOp(opRead, err, f.w.clock, s)
	return pl, err
}

func (f *tracedFile) Size() int64 { return f.f.Size() }

func (f *tracedFile) Close() error {
	s := f.w.t.start(f.w.clock)
	err := f.f.Close()
	f.w.t.endOp(opOther, err, f.w.clock, s)
	return err
}

type vectoredIO struct{ f *tracedFile }

func (v vectoredIO) WritevAt(segs []extent.Ext, data payload.List) error {
	s := v.f.w.t.start(v.f.w.clock)
	err := v.f.f.(plfs.VectoredIO).WritevAt(segs, data)
	v.f.w.t.endOp(opAppend, err, v.f.w.clock, s)
	return err
}

func (v vectoredIO) ReadvAt(segs []extent.Ext) (payload.List, error) {
	s := v.f.w.t.start(v.f.w.clock)
	pl, err := v.f.f.(plfs.VectoredIO).ReadvAt(segs)
	v.f.w.t.endOp(opRead, err, v.f.w.clock, s)
	return pl, err
}

type batchAppender struct{ f *tracedFile }

func (a batchAppender) Appendv(pl payload.List) (int64, error) {
	s := a.f.w.t.start(a.f.w.clock)
	off, err := a.f.f.(plfs.BatchAppender).Appendv(pl)
	a.f.w.t.endOp(opAppend, err, a.f.w.clock, s)
	return off, err
}

type rangeLocker struct{ f *tracedFile }

func (l rangeLocker) LockRange(off, n int64) error {
	s := l.f.w.t.start(l.f.w.clock)
	err := l.f.f.(plfs.RangeLocker).LockRange(off, n)
	l.f.w.t.endOp(opOther, err, l.f.w.clock, s)
	return err
}

func (l rangeLocker) UnlockRange(off, n int64) error {
	s := l.f.w.t.start(l.f.w.clock)
	err := l.f.f.(plfs.RangeLocker).UnlockRange(off, n)
	l.f.w.t.endOp(opOther, err, l.f.w.clock, s)
	return err
}
