package plfs_test

import (
	"runtime"
	"testing"

	"plfs/internal/mpi"
	"plfs/internal/payload"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/sim"
	"plfs/internal/simfs"
)

// simParallelOpen writes a one-block-per-rank N-1 file on a simulated
// cluster, then opens it collectively with ParallelIndexRead.  It returns
// each rank's resolved index and the bytes the whole run allocated from
// just before the open until the engine finished.
func simParallelOpen(t *testing.T, ranks int) ([]*plfs.Index, uint64) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := pfs.SmallCluster()
	cfg.JitterFrac = 0
	ppn := (ranks + cfg.Nodes - 1) / cfg.Nodes
	cfg.ProcsPerNode = ppn
	fs := pfs.New(eng, cfg)
	roots := make([]string, fs.Volumes())
	for i := range roots {
		roots[i] = fs.VolumeRoot(i)
	}
	mount := plfs.NewMount(roots, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4})
	world := mpi.NewWorld(eng, ranks, ppn, mpi.DefaultNet())
	const bs = 4 << 10
	ixs := make([]*plfs.Index, ranks)
	var before runtime.MemStats
	world.SpawnAll(func(r *mpi.Rank) {
		ctx := simfs.Ctx(fs, r.Node(), r.Proc(), r.Rank(), ppn)
		ctx.Comm = r.Comm()
		w, err := mount.Create(ctx, "shared")
		if err != nil {
			t.Errorf("rank %d create: %v", r.Rank(), err)
			return
		}
		off := int64(r.Rank()) * bs
		if err := w.Write(off, payload.Synthetic(uint64(r.Rank()+1), off, bs)); err != nil {
			t.Errorf("rank %d write: %v", r.Rank(), err)
		}
		if err := w.Close(); err != nil {
			t.Errorf("rank %d close: %v", r.Rank(), err)
		}
		ctx.Comm.Barrier()
		if r.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		rd, err := mount.OpenReader(ctx, "shared")
		if err != nil {
			t.Errorf("rank %d open: %v", r.Rank(), err)
			return
		}
		ixs[r.Rank()] = rd.Index()
		rd.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return ixs, after.TotalAlloc - before.TotalAlloc
}

// TestParallelOpenSharesIndex checks that a collective ParallelIndexRead
// open builds the global index once and hands every rank the same
// read-only *Index, and that the open's host allocation grows about
// linearly in ranks.  A per-rank copy of the global shard list, even one
// discarded after a cache hit, makes the open quadratic: doubling the
// ranks then roughly quadruples the bytes.
func TestParallelOpenSharesIndex(t *testing.T) {
	small, smallAlloc := simParallelOpen(t, 256)
	large, largeAlloc := simParallelOpen(t, 512)
	for _, ixs := range [][]*plfs.Index{small, large} {
		for rank, ix := range ixs {
			if ix == nil || ix != ixs[0] {
				t.Fatalf("rank %d of %d got index %p, rank 0 got %p", rank, len(ixs), ix, ixs[0])
			}
		}
	}
	if got := len(large[0].Droppings()); got != 512 {
		t.Fatalf("512-rank index has %d droppings", got)
	}
	ratio := float64(largeAlloc) / float64(smallAlloc)
	t.Logf("open allocation: 256 ranks %.2f MB, 512 ranks %.2f MB, ratio %.2f",
		float64(smallAlloc)/1e6, float64(largeAlloc)/1e6, ratio)
	if ratio >= 2.5 {
		t.Fatalf("open allocation grew %.2fx for 2x ranks, want < 2.5x (about linear)", ratio)
	}
}
