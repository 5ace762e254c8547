package harness

import (
	"errors"
	"fmt"

	"plfs/internal/fault"
	"plfs/internal/mpi"
	"plfs/internal/objfs"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/sim"
	"plfs/internal/simfs"
)

// cluster is the simulated machine every runner drives: one engine, one
// store under the mount, and an MPI world of ranks over it.  Exactly one
// of fs and store is set: the POSIX cluster, or the flat object store
// (whose "volumes" are key prefixes in one shared keyspace).
//
// Construction order is part of the simulated result: the engine's
// seeded RNG is drawn as each piece is built, so callers build the
// cluster first and then their mount and fault injector, never the other
// way round.
type cluster struct {
	eng   *sim.Engine
	fs    *pfs.FS
	store *objfs.Store
	roots []string
	ppn   int // procs per node after oversubscription
	world *mpi.World
	err   error // first rank error
}

// newCluster validates the backend name, then builds the engine, the
// store and an MPI world of ranks.  A zero cfg (Nodes == 0) means
// pfs.SmallCluster() and a zero net means mpi.DefaultNet().  When ranks
// exceed Nodes*ProcsPerNode the nodes are oversubscribed (the paper runs
// 2048 concurrent I/O streams on its 1024-core cluster).  The caller's
// registry, if any, is rebound to the engine's virtual clock, so span
// durations and latency histograms report simulated seconds.
func newCluster(seed int64, backend string, cfg pfs.Config, net mpi.NetConfig, ranks int, reg *obs.Registry) (*cluster, error) {
	if backend != "" && backend != BackendPosix && backend != BackendObjfs {
		return nil, fmt.Errorf("unknown backend %q", backend)
	}
	if cfg.Nodes == 0 {
		cfg = pfs.SmallCluster()
	}
	if net == (mpi.NetConfig{}) {
		net = mpi.DefaultNet()
	}
	c := &cluster{eng: sim.NewEngine(seed), ppn: cfg.ProcsPerNode}
	reg.SetClock(c.now)
	if ranks > cfg.Nodes*c.ppn {
		c.ppn = (ranks + cfg.Nodes - 1) / cfg.Nodes
	}
	cfg.ProcsPerNode = c.ppn
	if backend == BackendObjfs {
		c.store = objfs.NewSim(c.eng, objfs.DefaultConfig())
		c.roots = c.store.Roots(max(cfg.Volumes, 1))
	} else {
		c.fs = pfs.New(c.eng, cfg)
		c.roots = make([]string, c.fs.Volumes())
		for i := range c.roots {
			c.roots[i] = c.fs.VolumeRoot(i)
		}
	}
	c.world = mpi.NewWorld(c.eng, ranks, c.ppn, net)
	return c, nil
}

func (c *cluster) now() int64 { return int64(c.eng.Now()) }

// registry returns a fresh metrics registry on the virtual clock.
func (c *cluster) registry() *obs.Registry {
	reg := obs.New()
	reg.SetClock(c.now)
	return reg
}

// spawn starts body on every rank with the rank's plfs.Ctx: backend
// calls routed through inj when it is non-nil, Comm the world
// communicator.  A non-nil return is recorded with fail.
func (c *cluster) spawn(inj *fault.Injector, body func(r *mpi.Rank, ctx plfs.Ctx) error) {
	c.world.SpawnAll(func(r *mpi.Rank) {
		var ctx plfs.Ctx
		if c.store != nil {
			ctx = objfs.FaultCtx(c.store, len(c.roots), r.Node(), r.Proc(), r.Rank(), c.ppn, inj)
		} else {
			ctx = simfs.FaultCtx(c.fs, r.Node(), r.Proc(), r.Rank(), c.ppn, inj)
		}
		ctx.Comm = r.Comm()
		c.fail(body(r, ctx))
	})
}

// fail records err as the run's error unless an earlier one was.
func (c *cluster) fail(err error) {
	if err != nil && c.err == nil {
		c.err = err
	}
}

// invalidator is a rank's workloads.Env.InvalidateCaches: rank 0 drops
// the server caches (the object store keeps none) and the mount's index
// cache; every other rank only joins the kernel's surrounding barrier.
func (c *cluster) invalidator(r *mpi.Rank, mount *plfs.Mount) func() {
	if r.Rank() != 0 {
		return func() {}
	}
	return func() {
		if c.fs != nil {
			c.fs.DropCaches()
		}
		mount.DropIndexCache()
	}
}

// run drives the engine to completion and returns the first rank error.
// A rank that died on an unabsorbed error leaves the others blocked at a
// collective, so that root cause is joined to the engine's deadlock
// verdict.
func (c *cluster) run() error {
	if err := c.eng.Run(); err != nil {
		if c.err != nil {
			return errors.Join(c.err, err)
		}
		return err
	}
	return c.err
}

// report is the store's resource-usage report.
func (c *cluster) report() pfs.Report {
	if c.store != nil {
		return c.store.Report()
	}
	return c.fs.Report()
}

// publish exports the store's end-of-run gauges into reg.
func (c *cluster) publish(reg *obs.Registry) {
	if c.store != nil {
		c.store.PublishObs(reg)
	} else {
		c.fs.PublishObs(reg)
	}
}

// probes lists the store's resources for trace sampling.
func (c *cluster) probes() []struct {
	Name string
	Fn   func() float64
} {
	if c.store != nil {
		return c.store.TraceProbes()
	}
	return c.fs.TraceProbes()
}
