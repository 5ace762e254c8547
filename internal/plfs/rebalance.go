package plfs

// Dynamic volume rebalancing (the second half of the metadata-at-scale
// story).  Static hashing pins whole containers — and, without
// SpreadSubdirs, all their hostdirs — to one metadata volume, so a few
// hot containers can saturate one MDS while its peers idle.  When the
// per-volume load gauges show sustained skew, MigrateHostdir moves a hot
// container subdir to a cold volume with a crash-safe protocol built from
// the commit machinery this repo already trusts:
//
//   1. refuse unless the container is quiescent (no openhosts records);
//   2. create the destination shadow container + hostdir (idempotent);
//   3. copy every published dropping with writeFileAtomic — droppings are
//      immutable, so "same name means same content" holds and an ErrExist
//      verdict means an earlier (crashed) attempt already copied it;
//   4. remove the flattened global index and its replicas — it records
//      absolute dropping paths that are about to go stale;
//   5. publish the forwarding marker hostdir.<i>.moved.<seq>.v<vol>
//      atomically in the canonical container (highest seq wins);
//   6. retire superseded markers, then remove the source hostdir.
//
// Every crash point between those steps leaves the container openable:
// before the marker, readers resolve the untouched source copy; after
// it, they resolve the complete destination copy (listDroppings reads
// both locations and dedups by stamp).  Re-running the migration after
// a crash converges — every step tolerates its own completion.
//
// Rebalance wraps the protocol in a deterministic greedy policy driven
// by a caller-supplied per-volume load function (the harness feeds it
// the pfs per-volume MDS busy-time gauges).

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"sort"
)

// RebalancePolicy controls one Rebalance pass.
type RebalancePolicy struct {
	// Load returns the recent load of volume v (any monotone measure;
	// the harness uses MDS busy seconds since the last pass).  Required.
	Load func(vol int) float64
	// SkewThreshold is the max/median load ratio above which migration
	// starts (default 1.5).  Below it the pass is a no-op.
	SkewThreshold float64
	// MaxMoves bounds migrations per pass (0 = no bound): each move is
	// real I/O, so callers may prefer several gentle passes to one big
	// reshuffle.
	MaxMoves int
}

// RebalanceMove records one migrated hostdir.
type RebalanceMove struct {
	Subdir int `json:"subdir"`
	From   int `json:"from"`
	To     int `json:"to"`
}

// RebalanceReport summarizes a Rebalance pass.
type RebalanceReport struct {
	Skew  float64         `json:"skew"` // max/median volume load going in
	Moves []RebalanceMove `json:"moves"`
}

// LoadSkew is max/median of the volume loads; an idle or single-volume
// system reports 1 (no skew).
func LoadSkew(loads []float64) float64 {
	if len(loads) < 2 {
		return 1
	}
	sorted := append([]float64(nil), loads...)
	sort.Float64s(sorted)
	maxL := sorted[len(sorted)-1]
	med := sorted[len(sorted)/2]
	if maxL <= 0 {
		return 1
	}
	if med <= 0 {
		// Load exists but the median volume is idle: maximal skew.
		return maxL / 1e-9
	}
	return maxL / med
}

// Rebalance runs one policy pass over a container: if the per-volume
// load skew exceeds the threshold, hostdirs migrate from overloaded
// volumes (more than their fair share of this container's hostdirs,
// lowest ids first — deterministic) to the coldest non-degraded volumes.
// The container must be quiescent; concurrent opens never 404 because
// every reader resolves the forwarding markers (see the file comment).
func (m *Mount) Rebalance(ctx Ctx, rel string, pol RebalancePolicy) (RebalanceReport, error) {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	rep := RebalanceReport{Skew: 1}
	V := len(m.roots)
	if V < 2 || pol.Load == nil {
		return rep, nil
	}
	loads := make([]float64, V)
	for v := range loads {
		loads[v] = pol.Load(v)
	}
	rep.Skew = LoadSkew(loads)
	thr := pol.SkewThreshold
	if thr <= 0 {
		thr = 1.5
	}
	if rep.Skew < thr {
		return rep, nil
	}
	ids, moved, err := m.hostdirIDs(ctx, rel)
	if err != nil {
		return rep, err
	}
	vc := m.containerVol(rel)
	perVol := make([][]int, V)
	for _, id := range ids {
		v := m.subdirVol(vc, id)
		if mv, ok := moved[id]; ok && mv < V {
			v = mv
		}
		perVol[v] = append(perVol[v], id)
	}
	fair := (len(ids) + V - 1) / V
	maxMoves := pol.MaxMoves
	if maxMoves <= 0 {
		maxMoves = len(ids)
	}
	// Hottest volumes first; ties break on index for determinism.
	order := make([]int, V)
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		if loads[order[i]] != loads[order[j]] {
			return loads[order[i]] > loads[order[j]]
		}
		return order[i] < order[j]
	})
	for _, hot := range order {
		if loads[hot] <= 0 {
			break
		}
		for len(perVol[hot]) > fair && len(rep.Moves) < maxMoves {
			id := perVol[hot][0]
			dst := -1
			for v := 0; v < V; v++ {
				if v == hot || m.volDegraded(ctx, v) || len(perVol[v]) >= fair {
					continue
				}
				if dst == -1 || loads[v] < loads[dst] {
					dst = v
				}
			}
			if dst == -1 {
				break
			}
			if err := m.MigrateHostdir(ctx, rel, id, dst); err != nil {
				return rep, err
			}
			perVol[hot] = perVol[hot][1:]
			perVol[dst] = append(perVol[dst], id)
			rep.Moves = append(rep.Moves, RebalanceMove{Subdir: id, From: hot, To: dst})
		}
	}
	if ctx.Obs != nil {
		ctx.Obs.Counter("plfs.rebalance.passes").Add(1)
		ctx.Obs.Counter("plfs.rebalance.moves").Add(int64(len(rep.Moves)))
	}
	return rep, nil
}

// MigrateHostdir moves one hostdir of container rel to volume dst using
// the crash-safe protocol in the file comment.  A no-op if the hostdir
// already lives on dst.  The container must be quiescent (no registered
// writers); readers may run concurrently throughout.
func (m *Mount) MigrateHostdir(ctx Ctx, rel string, id, dst int) error {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	if id < 0 || dst < 0 || dst >= len(m.roots) {
		return fmt.Errorf("plfs: migrate %s hostdir.%d to vol %d: %w", rel, id, dst, iofs.ErrInvalid)
	}
	pol := m.opt.Retry
	cpath, vc := m.containerPath(rel)
	sp := ctx.Obs.StartSpan("migrate")
	defer sp.End()

	// Quiescence: migrating under an active writer could strand droppings
	// created at the source after the copy loop passed it.
	if ents, err := ctx.readDirRetried(ctx.Vols[vc], path.Join(cpath, openHostsDir), pol); err == nil {
		if len(ents) > 0 {
			return fmt.Errorf("plfs: migrate %s hostdir.%d: container has %d active writer host(s)", rel, id, len(ents))
		}
	} else if !errors.Is(err, iofs.ErrNotExist) {
		return err
	}

	// Resolve the current location (forwarding markers win over the hash).
	ents, err := ctx.readDirRetried(ctx.Vols[vc], cpath, pol)
	if err != nil {
		return err
	}
	src := m.subdirVol(vc, id)
	seq := 0
	if t, ok := movedTargets(ents)[id]; ok {
		seq = t.Seq
		if t.Vol < len(m.roots) {
			src = t.Vol
		}
	}
	if src == dst {
		return nil
	}
	srcPath := path.Join(m.roots[src], rel, fmt.Sprintf("%s%d", hostdirPrefix, id))
	dstPath := path.Join(m.roots[dst], rel, fmt.Sprintf("%s%d", hostdirPrefix, id))

	// Destination landing zone (idempotent).
	if dst != vc {
		if err := ctx.mkdirRetried(ctx.Vols[dst], path.Join(m.roots[dst], rel), pol); err != nil && !errors.Is(err, iofs.ErrExist) {
			return err
		}
	}
	if err := ctx.mkdirRetried(ctx.Vols[dst], dstPath, pol); err != nil && !errors.Is(err, iofs.ErrExist) {
		return err
	}

	// Copy published droppings.  Atomic per file; ErrExist inside
	// writeFileAtomic reports success — a crashed earlier attempt already
	// landed this (immutable) file.
	srcEnts, err := ctx.readDirRetried(ctx.Vols[src], srcPath, pol)
	if err != nil {
		if !errors.Is(err, iofs.ErrNotExist) {
			return err
		}
		srcEnts = nil // hostdir never materialized: nothing to copy
	}
	var copied int64
	var bytes int64
	for _, e := range srcEnts {
		if e.Dir || isTmpName(e.Name) {
			continue
		}
		pl, _, err := ctx.readAllRetried(ctx.Vols[src], path.Join(srcPath, e.Name), pol)
		if err != nil {
			return err
		}
		if err := ctx.writeFileAtomic(ctx.Vols[dst], path.Join(dstPath, e.Name), pl.Materialize(), pol, false); err != nil {
			return err
		}
		copied++
		bytes += e.Size
	}

	// The flattened global index records absolute dropping paths; it must
	// not outlive the move (its replicas neither).  Readers rebuild from
	// the droppings until the next flatten.
	gp := path.Join(cpath, metaDir, globalIndex)
	if err := ctx.retry(pol, func() error { return ctx.Vols[vc].Remove(gp) }); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	m.removeReplicas(ctx, gp)

	// Publish the forwarding marker: from this instant every reader (and
	// every batched writer) resolves the destination first.
	if err := ctx.writeFileAtomic(ctx.Vols[vc], path.Join(cpath, movedMarkerName(id, seq+1, dst)), nil, pol, false); err != nil {
		return err
	}
	// Retire superseded markers (lower seq for the same id).
	for _, e := range ents {
		mid, mseq, _, ok := parseMovedMarker(e.Name)
		if !ok || e.Dir || mid != id || mseq > seq {
			continue
		}
		if err := ctx.Vols[vc].Remove(path.Join(cpath, e.Name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return err
		}
	}

	// Source cleanup.  Readers that listed the source a moment ago still
	// resolve its stamps — dedup prefers the destination copy — and ones
	// that list after see only the destination.
	if err := removeTree(ctx.Vols[src], srcPath); err != nil {
		return err
	}
	if src != vc {
		// Shadow container dir, if this was its last hostdir.
		_ = ctx.Vols[src].Remove(path.Join(m.roots[src], rel))
	}

	m.invalidateState(rel, ctx.Tenant)
	if ctx.Obs != nil {
		ctx.Obs.Counter("plfs.rebalance.migrated_droppings").Add(copied)
		ctx.Obs.Counter("plfs.rebalance.migrated_bytes").Add(bytes)
	}
	return nil
}
