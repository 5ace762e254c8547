package mpi

import (
	"plfs/internal/comm"
	"plfs/internal/sim"
)

// Comm is a communicator over a subset of world ranks.  It implements
// comm.Comm.  members holds world ranks in communicator-rank order;
// me is this process's communicator rank.
type Comm struct {
	r       *Rank
	id      int
	members []int
	me      int
	seq     int // collective sequence number (advances in lockstep)
}

var _ comm.Comm = (*Comm)(nil)

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank returns the world rank of communicator rank i.
func (c *Comm) WorldRank(i int) int { return c.members[i] }

// tag builds a collision-free message tag from (comm, collective instance,
// round).  Collectives advance seq in lockstep on every member, so a tag
// uniquely identifies one round of one collective on one communicator.
// Field widths: 16 bits of round (Alltoall uses one round per shift),
// 24 bits of sequence, the rest comm id; offset clear of user tags.
func (c *Comm) tag(round int) int {
	return (c.id<<40 | c.seq<<16 | round) + 1<<62
}

func (c *Comm) send(dst, round int, nbytes int64, val any) {
	c.r.Send(c.members[dst], c.tag(round), nbytes, val)
}

func (c *Comm) recv(src, round int) sim.Msg {
	return c.r.Recv(c.members[src], c.tag(round))
}

// Barrier uses the dissemination algorithm: ceil(log2 n) rounds of
// shifted pairwise notifications.
func (c *Comm) Barrier() {
	defer func() { c.seq++ }()
	n := len(c.members)
	round := 0
	for k := 1; k < n; k <<= 1 {
		dst := (c.me + k) % n
		src := (c.me - k + n) % n
		c.send(dst, round, 0, nil)
		c.recv(src, round)
		round++
	}
}

// Bcast distributes root's v along a binomial tree.
func (c *Comm) Bcast(root int, nbytes int64, v any) any {
	defer func() { c.seq++ }()
	n := len(c.members)
	if n == 1 {
		return v
	}
	rel := (c.me - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (c.me - mask + n) % n
			v = c.recv(src, 0).Val
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (c.me + mask) % n
			c.send(dst, 0, nbytes, v)
		}
		mask >>= 1
	}
	return v
}

// gatherTree runs a binomial gather of per-rank values toward root and
// returns the full slice (indexed by comm rank) at root, nil elsewhere.
// Interior nodes forward their accumulated subtree, so message sizes grow
// up the tree exactly as in MPICH's binomial gather.
//
// A node at relative rank rel owns the relative ranks [rel, rel+size) of
// its subtree, and its children arrive in mask order, each covering the
// next adjacent block; so acc is that range in relative-rank order, and
// only the root rotates it back to comm-rank order.
func (c *Comm) gatherTree(root int, nbytes int64, v any) []any {
	defer func() { c.seq++ }()
	n := len(c.members)
	rel := (c.me - root + n) % n
	size := n
	if rel != 0 {
		size = min(rel&-rel, n-rel)
	}
	acc := make([]any, 1, size)
	acc[0] = v
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			if rel+mask < n {
				src := (c.me + mask) % n
				acc = append(acc, c.recv(src, 0).Val.([]any)...)
			}
		} else {
			dst := (c.me - mask + n) % n
			c.send(dst, 0, int64(len(acc))*nbytes, acc)
			return nil
		}
		mask <<= 1
	}
	if root == 0 {
		return acc
	}
	out := make([]any, n)
	for i, val := range acc {
		out[(i+root)%n] = val
	}
	return out
}

// Gather collects each rank's v at root.
func (c *Comm) Gather(root int, nbytes int64, v any) []any {
	return c.gatherTree(root, nbytes, v)
}

// Allgather collects every rank's v onto every rank (gather + bcast).
func (c *Comm) Allgather(nbytes int64, v any) []any {
	all := c.gatherTree(0, nbytes, v)
	got := c.Bcast(0, nbytes*int64(len(c.members)), all)
	return got.([]any)
}

// Scatter distributes vs (significant at root) down a binomial tree; each
// rank returns vs[commRank].
func (c *Comm) Scatter(root int, nbytesEach int64, vs []any) any {
	defer func() { c.seq++ }()
	n := len(c.members)
	if n == 1 {
		return vs[0]
	}
	rel := (c.me - root + n) % n
	// blocks holds the values for relative ranks [rel, rel+span).
	var blocks map[int]any
	if rel == 0 {
		blocks = make(map[int]any, n)
		for i, v := range vs {
			blocks[(i-root+n)%n] = v // keyed by relative rank
		}
	}
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (c.me - mask + n) % n
			blocks = c.recv(src, 0).Val.(map[int]any)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			// Hand off the upper half of our block range.
			sub := make(map[int]any)
			for k := rel + mask; k < rel+2*mask && k < n; k++ {
				if v, ok := blocks[k]; ok {
					sub[k] = v
					delete(blocks, k)
				}
			}
			dst := (c.me + mask) % n
			c.send(dst, 0, int64(len(sub))*nbytesEach, sub)
		}
		mask >>= 1
	}
	return blocks[rel]
}

// Reduce combines every rank's value at root with fn (associative,
// commutative).  Non-roots return nil.
func (c *Comm) Reduce(root int, nbytes int64, v any, fn func(a, b any) any) any {
	defer func() { c.seq++ }()
	n := len(c.members)
	rel := (c.me - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			if rel+mask < n {
				src := (c.me + mask) % n
				m := c.recv(src, 0)
				v = fn(v, m.Val)
			}
		} else {
			dst := (c.me - mask + n) % n
			c.send(dst, 0, nbytes, v)
			return nil
		}
		mask <<= 1
	}
	return v
}

// Allreduce combines every rank's value on every rank.
func (c *Comm) Allreduce(nbytes int64, v any, fn func(a, b any) any) any {
	out := c.Reduce(0, nbytes, v, fn)
	return c.Bcast(0, nbytes, out)
}

// Alltoall performs a pairwise exchange: every rank sends vs[i] to rank i
// and returns the values received, indexed by source.  nbytes[i] is the
// size sent to rank i.  It is O(n) rounds, so use it on small
// communicators (e.g. group leaders).
func (c *Comm) Alltoall(nbytes []int64, vs []any) []any {
	defer func() { c.seq++ }()
	n := len(c.members)
	out := make([]any, n)
	out[c.me] = vs[c.me]
	for shift := 1; shift < n; shift++ {
		dst := (c.me + shift) % n
		src := (c.me - shift + n) % n
		c.send(dst, shift, nbytes[dst], vs[dst])
		out[src] = c.recv(src, shift).Val
	}
	return out
}

type splitInfo struct {
	groups map[int][]int // parent comm rank -> member list
	colors []int
	ids    map[int]int // color -> new comm id
}

// Split partitions the communicator by color, ordered by (key, rank).
func (c *Comm) Split(color, key int) comm.Comm {
	vals := c.Gather(0, 16, [2]int{color, key})
	var info splitInfo
	if c.me == 0 {
		n := len(c.members)
		colors := make([]int, n)
		keys := make([]int, n)
		for i, v := range vals {
			ck := v.([2]int)
			colors[i], keys[i] = ck[0], ck[1]
		}
		groups := comm.SplitGroups(colors, keys)
		ids := make(map[int]int)
		// Assign comm ids in deterministic (first-member) order.
		for i := 0; i < n; i++ {
			cg := colors[i]
			if _, ok := ids[cg]; !ok {
				c.r.w.nextCommID++
				ids[cg] = c.r.w.nextCommID
			}
		}
		info = splitInfo{groups: groups, colors: colors, ids: ids}
	}
	got := c.Bcast(0, 16*int64(len(c.members)), info).(splitInfo)
	members := got.groups[c.me] // parent comm ranks
	world := make([]int, len(members))
	me := 0
	for i, pr := range members {
		world[i] = c.members[pr]
		if pr == c.me {
			me = i
		}
	}
	return &Comm{r: c.r, id: got.ids[got.colors[c.me]], members: world, me: me}
}
