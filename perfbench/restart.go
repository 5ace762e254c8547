package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"plfs/internal/localcomm"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// osfs-restart sizes (see README.md).  The rank count is fixed rather
// than taken from the host so the same seed always makes the same input.
const (
	restartRanks      = 2
	restartBlock      = 4 << 10
	restartBlocksRank = 4096 // 16 MiB per rank, 32 MiB per checkpoint
	restartsPerIter   = 16
	readsPerRestart   = 64 // per rank
)

// restartWorkload writes an N-1 checkpoint through PLFS over osfs with
// goroutine ranks on localcomm, then restarts from it repeatedly: drop
// the index cache, open collectively, and read random 4 KiB ranges.
type restartWorkload struct {
	root  string // backing directory, private to this process
	mount *plfs.Mount
	fs    osfs.FS
	// order[r] is the shuffled sequence of rank r's block indices: the
	// writes are out of order so run compression cannot collapse the
	// index to a few records.
	order [][]int
	rng   *rand.Rand
	iter  int
}

// restartIter is one iteration's outcome.
type restartIter struct {
	hostNS    int64 // write phase plus every restart, excluding verification
	alloc     uint64
	writeNS   int64
	attempted int
	failed    int
	errs      []error
	openNS    []float64
	readNS    []float64
	open      plfs.OpenStats
}

func newRestartWorkload(seed int64, workDir string) (*restartWorkload, error) {
	root := filepath.Join(workDir, fmt.Sprintf("osfs-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("create backing directory: %w", err)
	}
	w := &restartWorkload{
		root: root,
		mount: plfs.NewMount([]string{root}, plfs.Options{
			IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
		}),
		fs:  osfs.New(),
		rng: rand.New(rand.NewSource(seed)),
	}
	for r := 0; r < restartRanks; r++ {
		blocks := make([]int, restartBlocksRank)
		for k := range blocks {
			blocks[k] = k*restartRanks + r
		}
		w.rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		w.order = append(w.order, blocks)
	}
	return w, nil
}

func (w *restartWorkload) cleanup() { os.RemoveAll(w.root) }

// size is the checkpoint's logical size.
func (w *restartWorkload) size() int64 {
	return int64(restartRanks*restartBlocksRank) * restartBlock
}

// expected returns the bytes a correct read of [off, off+n) returns:
// block b was written by rank b % ranks with the tag rank+1.
func expected(off, n int64) payload.List {
	var want payload.List
	for n > 0 {
		b := off / restartBlock
		take := min(n, (b+1)*restartBlock-off)
		want = append(want, payload.Synthetic(uint64(b%restartRanks)+1, off, take))
		off += take
		n -= take
	}
	return want
}

// ctxs builds each rank's context, wrapped when tracing.
func (w *restartWorkload) ctxs(tr *tracer) []plfs.Ctx {
	comms := localcomm.New(restartRanks)
	out := make([]plfs.Ctx, restartRanks)
	for r := range out {
		out[r] = plfs.Ctx{
			Vols: []plfs.Backend{w.fs}, Rank: r, Host: r, HostLeader: true, Comm: comms[r],
		}
		if tr != nil {
			out[r] = tr.wrapCtx(out[r])
		}
	}
	return out
}

// ranks runs fn on every rank concurrently and returns the errors.
func ranks(fn func(r int) error) []error {
	errs := make([]error, restartRanks)
	var wg sync.WaitGroup
	for r := 0; r < restartRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	return errs
}

// writeRank writes rank r's share of the checkpoint.
func (w *restartWorkload) writeRank(ctx plfs.Ctx, tr *tracer, name string, r int) error {
	t := time.Now()
	wr, err := w.mount.Create(ctx, name)
	tr.plfsCall(t)
	if err != nil {
		return fmt.Errorf("rank %d: create: %w", r, err)
	}
	for _, b := range w.order[r] {
		off := int64(b) * restartBlock
		t := time.Now()
		err := wr.Write(off, payload.Synthetic(uint64(r)+1, off, restartBlock))
		tr.plfsCall(t)
		if err != nil {
			return fmt.Errorf("rank %d: write at %d: %w", r, off, err)
		}
	}
	t = time.Now()
	err = wr.Close()
	tr.plfsCall(t)
	if err != nil {
		return fmt.Errorf("rank %d: close: %w", r, err)
	}
	return nil
}

// restartRank opens the checkpoint and reads the given offsets, keeping
// each result for verification after the timed region.
func (w *restartWorkload) restartRank(ctx plfs.Ctx, tr *tracer, name string, offs []int64,
	got []payload.List, openNS, readNS []float64) (plfs.OpenStats, error) {
	t := time.Now()
	rd, err := w.mount.OpenReader(ctx, name)
	d := time.Since(t)
	tr.plfsCall(t)
	openNS[0] = float64(d)
	if err != nil {
		return plfs.OpenStats{}, fmt.Errorf("rank %d: open: %w", ctx.Rank, err)
	}
	for i, off := range offs {
		t := time.Now()
		got[i], err = rd.ReadAt(off, restartBlock)
		d := time.Since(t)
		tr.plfsCall(t)
		readNS[i] = float64(d)
		if err != nil {
			return rd.Stats, fmt.Errorf("rank %d: read at %d: %w", ctx.Rank, off, err)
		}
	}
	t = time.Now()
	err = rd.Close()
	tr.plfsCall(t)
	return rd.Stats, err
}

func (w *restartWorkload) iterate(tr *tracer) restartIter {
	var it restartIter
	name := fmt.Sprintf("ckpt-%d", w.iter)
	w.iter++
	ctxs := w.ctxs(tr)

	var errs []error
	it.writeNS, it.alloc = timed(func() {
		errs = ranks(func(r int) error { return w.writeRank(ctxs[r], tr, name, r) })
	})
	it.hostNS = it.writeNS
	it.attempted += restartRanks * (restartBlocksRank + 2)
	it.note(errs)

	// Inputs for every restart are drawn before the timed region.
	maxOff := w.size() - restartBlock
	offs := make([][]int64, restartRanks)
	got := make([][]payload.List, restartRanks)
	opens := make([]float64, restartRanks)
	reads := make([][]float64, restartRanks)
	stats := make([]plfs.OpenStats, restartRanks)
	for k := 0; k < restartsPerIter; k++ {
		for r := range offs {
			offs[r] = make([]int64, readsPerRestart)
			for i := range offs[r] {
				offs[r][i] = w.rng.Int63n(maxOff + 1)
			}
			got[r] = make([]payload.List, readsPerRestart)
			reads[r] = make([]float64, readsPerRestart)
		}
		ns, alloc := timed(func() {
			t := time.Now()
			w.mount.DropIndexCache()
			tr.plfsCall(t)
			errs = ranks(func(r int) error {
				var err error
				stats[r], err = w.restartRank(ctxs[r], tr, name, offs[r], got[r], opens[r:r+1], reads[r])
				return err
			})
		})
		it.hostNS += ns
		it.alloc += alloc
		it.attempted += restartRanks * (1 + readsPerRestart)
		it.note(errs)
		it.openNS = append(it.openNS, opens...)
		for r := range reads {
			it.readNS = append(it.readNS, reads[r]...)
		}
		it.open = stats[0]
		pprof.Do(context.Background(), pprof.Labels(benchLabel, "verify"), func(context.Context) {
			for r := range got {
				for i, g := range got[r] {
					if g != nil && !payload.ContentEqual(g, expected(offs[r][i], restartBlock)) {
						it.failed++
						it.errs = append(it.errs, fmt.Errorf("rank %d: read at %d returned wrong data", r, offs[r][i]))
					}
				}
			}
		})
	}
	if err := w.mount.Unlink(plfs.Ctx{Vols: []plfs.Backend{w.fs}, HostLeader: true}, name); err != nil {
		it.failed++
		it.errs = append(it.errs, fmt.Errorf("unlink %s: %w", name, err))
	}
	return it
}

// note counts each rank that failed once: a rank stops at its first
// error.
func (it *restartIter) note(errs []error) {
	for _, err := range errs {
		if err != nil {
			it.failed++
			it.errs = append(it.errs, err)
		}
	}
}
