package harness

import (
	"fmt"
	"time"

	"plfs/internal/adio"
	"plfs/internal/mpi"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/stats"
	"plfs/internal/workloads"
)

// MetaStormJob is one metadata-at-scale run: a collective create storm
// (workloads.CreateStorm100k) against the simulated POSIX cluster, with
// the two tentpole optimizations togglable — bulk-create batching and
// between-round volume rebalancing.
type MetaStormJob struct {
	Seed  int64
	Ranks int
	// Containers per round.  The default is 5: over the default 4
	// volumes, static hashing places two of the five on one volume —
	// the hot-volume imbalance the rebalancing variant repairs.
	Containers int
	Rounds     int // storm rounds (default 3)
	// Cfg: zero Nodes = pfs.SmallCluster() federated over 4 metadata
	// volumes (skew needs a federation to be skewed across).
	Cfg pfs.Config
	Net mpi.NetConfig
	// BulkCreate routes collective creates through the MDS bulk-create
	// RPC (Options.BulkCreate).
	BulkCreate bool
	// Rebalance runs a rank-0 rebalancing pass over every container
	// between rounds, feeding plfs.RebalancePolicy.Load with the
	// per-volume MDS busy-time deltas since the previous pass — the same
	// signal the pfs.vol<i>.mds_busy_seconds gauges export.
	Rebalance bool
}

// MetaStormReport summarizes a MetaStormJob.
type MetaStormReport struct {
	// Creates is the total create count (ranks x containers x rounds);
	// OpenRate divides it by the summed collective open time — the
	// per-op open rate the acceptance bar compares across variants.
	Creates  int64
	OpenTime time.Duration
	OpenRate float64
	// Skew is the final max/median per-volume MDS busy time; Moves
	// counts hostdir migrations the rebalancing passes performed.
	Skew  float64
	Moves int
	// Makespan is the virtual end-to-end time.
	Makespan time.Duration
}

// RunMetaStorm executes the collective create storm, deterministic in
// the seed.
func RunMetaStorm(j MetaStormJob) (MetaStormReport, error) {
	if j.Cfg.Nodes == 0 {
		j.Cfg = pfs.SmallCluster()
		j.Cfg.Volumes = 4
	}
	if j.Containers <= 0 {
		j.Containers = 5
	}
	if j.Rounds <= 0 {
		j.Rounds = 3
	}
	c, err := newCluster(j.Seed, BackendPosix, j.Cfg, j.Net, j.Ranks, nil)
	if err != nil {
		return MetaStormReport{}, err
	}
	mount := plfs.NewMount(c.roots, plfs.Options{
		IndexMode:        plfs.ParallelIndexRead,
		NumSubdirs:       4,
		SpreadContainers: len(c.roots) > 1,
		BulkCreate:       j.BulkCreate,
	})

	// Between-round rebalancing state, touched only by rank 0 while every
	// other rank waits at the kernel's AfterRound barrier (the simulation
	// is cooperative, so the mid-run report read is safe).
	lastBusy := make([]time.Duration, len(c.roots))
	moves := 0
	rebalance := func(ctx plfs.Ctx) error {
		busy := c.report().MDSBusy
		loads := make([]float64, len(busy))
		for v := range busy {
			loads[v] = (busy[v] - lastBusy[v]).Seconds()
		}
		copy(lastBusy, busy)
		pol := plfs.RebalancePolicy{Load: func(v int) float64 { return loads[v] }}
		for i := 0; i < j.Containers; i++ {
			rep, err := mount.Rebalance(ctx, fmt.Sprintf("meta-storm-c%d", i), pol)
			if err != nil {
				return err
			}
			moves += len(rep.Moves)
		}
		return nil
	}

	var res workloads.Result
	c.spawn(nil, func(r *mpi.Rank, ctx plfs.Ctx) error {
		k := workloads.CreateStorm100k{Containers: j.Containers, Rounds: j.Rounds}
		if j.Rebalance {
			k.AfterRound = func(round int) {
				if r.Rank() != 0 || round == j.Rounds-1 {
					return // nothing left to optimize after the last round
				}
				if err := rebalance(ctx); err != nil {
					c.fail(fmt.Errorf("rebalance after round %d: %w", round, err))
				}
			}
		}
		env := &workloads.Env{Ctx: ctx, Driver: adio.PLFS{Mount: mount}, Path: k.Name()}
		out, err := k.Run(env, false)
		if r.Rank() == 0 {
			res = out
		}
		if err != nil {
			return fmt.Errorf("rank %d: %w", r.Rank(), err)
		}
		return nil
	})
	if err := c.run(); err != nil {
		return MetaStormReport{}, err
	}
	busy := c.report().MDSBusy
	loads := make([]float64, len(busy))
	for v, d := range busy {
		loads[v] = d.Seconds()
	}
	rep := MetaStormReport{
		Creates:  workloads.CreateStorm100k{Containers: j.Containers, Rounds: j.Rounds}.Creates(j.Ranks),
		OpenTime: res.WriteOpen,
		Skew:     plfs.LoadSkew(loads),
		Moves:    moves,
		Makespan: time.Duration(c.eng.Now()),
	}
	if s := rep.OpenTime.Seconds(); s > 0 {
		rep.OpenRate = float64(rep.Creates) / s
	}
	return rep, nil
}

// metaStormRanks is the x-axis for the ablation-metadata figure: the
// paper-scale sweep tops out past 100k ranks, the regime the tentpole
// targets.
func (o Options) metaStormRanks() []int {
	if o.Scale == Paper {
		return []int{8192, 32768, 102400}
	}
	return []int{64, 256}
}

// AblationMetadata compares the collective create storm across the three
// metadata configurations — static hashing, bulk-create batching, and
// batching plus dynamic volume rebalancing — reporting the per-op open
// rate and the final per-volume MDS load skew for each.
func AblationMetadata(o Options) ([]*stats.Table, error) {
	o = o.withDefaults()
	rate := &stats.Table{
		Title:  "Ablation: metadata at scale — collective create rate",
		XLabel: "procs", YLabel: "creates/s",
	}
	skew := &stats.Table{
		Title:  "Ablation: metadata at scale — per-volume MDS load skew (max/median)",
		XLabel: "procs", YLabel: "skew",
	}
	variants := []struct {
		name            string
		bulk, rebalance bool
	}{
		{"static", false, false},
		{"batched", true, false},
		{"batched+rebalanced", true, true},
	}
	for _, n := range o.metaStormRanks() {
		for _, v := range variants {
			var sr, ss stats.Sample
			for rep := 0; rep < o.repsFor(n); rep++ {
				r, err := RunMetaStorm(MetaStormJob{
					Seed: o.BaseSeed + int64(rep), Ranks: n,
					BulkCreate: v.bulk, Rebalance: v.rebalance,
				})
				if err != nil {
					return nil, fmt.Errorf("ablation-metadata %s @%d: %w", v.name, n, err)
				}
				sr.Add(r.OpenRate)
				ss.Add(r.Skew)
				o.log("ablation-metadata %-18s n=%-6d rep %d: %.0f creates/s skew %.2f moves %d",
					v.name, n, rep, r.OpenRate, r.Skew, r.Moves)
			}
			rate.AddSample(v.name, float64(n), &sr)
			skew.AddSample(v.name, float64(n), &ss)
		}
	}
	return []*stats.Table{rate, skew}, nil
}
