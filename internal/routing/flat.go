package routing

import (
	"fmt"

	"multicastnet/internal/core"
)

// FlatPlan is the dense CSR (compressed sparse row) form of a Plan: every
// path, tree level, channel and delivery packed into flat []int32 arrays
// instead of pointer-chasing per-route slices and per-injection maps. The
// simulator consumes it directly (wormsim.InjectFlat): path positions and
// tree depths are resolved once at flattening time, so the injection hot
// path allocates no maps and walks contiguous memory.
//
// Layout. Paths are CSR over the path index: path p's node sequence is
// PathNodes[PathOff[p]:PathOff[p+1]] and hop h's channel class is
// PathClass[PathOff[p]-int32(p)+h] (one fewer class than nodes per path).
// Its deliveries are the parallel PathDest/PathDestPos rows of
// [PathDestOff[p], PathDestOff[p+1]). Trees are a two-level CSR: tree t
// owns level boundaries TreeLevelOff[TreeOff[t]:TreeOff[t+1]+1], each
// consecutive pair bounding one lock-step frontier's rows in
// TreeFrom/TreeTo/TreeClass; its deliveries are TreeDest/TreeDestDepth
// rows of [TreeDestOff[t], TreeDestOff[t+1]).
//
// Degenerate routes (paths with fewer than two nodes, trees with no
// edges) are dropped from the arrays but their destination counts are
// retained in TotalDests, preserving the multicast-size accounting of the
// route-based injection path exactly.
//
// A FlatPlan is immutable after Flatten and safe to share across
// goroutines and cache entries.
type FlatPlan struct {
	// Paths.
	PathOff     []int32 // len nPaths+1: node-row bounds per path
	PathNodes   []int32 // packed node sequences
	PathClass   []int32 // packed per-hop channel classes
	PathDestOff []int32 // len nPaths+1: delivery-row bounds per path
	PathDest    []int32 // destination node ids
	PathDestPos []int32 // 1-based path position of each destination

	// Trees.
	TreeOff       []int32 // len nTrees+1: level-boundary index per tree
	TreeLevelOff  []int32 // channel-row bounds; level l of tree t is [TreeLevelOff[TreeOff[t]+l], TreeLevelOff[TreeOff[t]+l+1])
	TreeFrom      []int32 // packed frontier channels, level by level
	TreeTo        []int32
	TreeClass     []int32
	TreeDestOff   []int32 // len nTrees+1: delivery-row bounds per tree
	TreeDest      []int32 // destination node ids
	TreeDestDepth []int32 // tree depth of each destination

	// TotalDests is the destination count of the whole multicast,
	// including destinations of degenerate routes dropped from the arrays.
	TotalDests int32
}

// Paths returns the number of flattened paths.
func (f *FlatPlan) Paths() int { return len(f.PathOff) - 1 }

// Trees returns the number of flattened trees.
func (f *FlatPlan) Trees() int { return len(f.TreeOff) - 1 }

// Flatten converts a routed plan into its dense CSR form, resolving
// destination path positions and tree depths once. It panics on a plan
// whose destinations are not on its routes — the same contract the
// route-based injection path enforces per injection.
func Flatten(p Plan) *FlatPlan {
	f := &FlatPlan{
		PathOff:      make([]int32, 1, len(p.Paths)+1),
		PathDestOff:  make([]int32, 1, len(p.Paths)+1),
		TreeOff:      make([]int32, 1, len(p.Trees)+1),
		TreeLevelOff: []int32{0},
		TreeDestOff:  make([]int32, 1, len(p.Trees)+1),
	}
	for _, pr := range p.Paths {
		f.TotalDests += int32(len(pr.Dests))
		if len(pr.Nodes) < 2 {
			continue
		}
		for i, node := range pr.Nodes {
			f.PathNodes = append(f.PathNodes, int32(node))
			if i > 0 {
				f.PathClass = append(f.PathClass, int32(pr.HopClass(i-1)))
			}
		}
		f.PathOff = append(f.PathOff, int32(len(f.PathNodes)))
		// First-occurrence positions, as the injector's position map
		// resolves them.
		for _, d := range pr.Dests {
			pos := -1
			for i, node := range pr.Nodes {
				if node == d {
					pos = i
					break
				}
			}
			if pos <= 0 {
				panic(fmt.Sprintf("routing: path does not visit destination %d", d))
			}
			f.PathDest = append(f.PathDest, int32(d))
			f.PathDestPos = append(f.PathDestPos, int32(pos))
		}
		f.PathDestOff = append(f.PathDestOff, int32(len(f.PathDest)))
	}
	for _, tr := range p.Trees {
		f.TotalDests += int32(len(tr.Dests))
		if len(tr.Edges) == 0 {
			continue
		}
		depths := tr.Depths()
		maxd := 0
		for _, e := range tr.Edges {
			if depths[e.To] > maxd {
				maxd = depths[e.To]
			}
		}
		// Bucket channels by level, preserving edge order within each
		// level (the lock-step frontier order the simulator arbitrates
		// in).
		counts := make([]int32, maxd)
		for _, e := range tr.Edges {
			counts[depths[e.To]-1]++
		}
		base := int32(len(f.TreeFrom))
		starts := make([]int32, maxd+1)
		starts[0] = base
		for l := 0; l < maxd; l++ {
			starts[l+1] = starts[l] + counts[l]
		}
		grow := int(starts[maxd] - base)
		for i := 0; i < grow; i++ {
			f.TreeFrom = append(f.TreeFrom, 0)
			f.TreeTo = append(f.TreeTo, 0)
			f.TreeClass = append(f.TreeClass, 0)
		}
		cursor := make([]int32, maxd)
		copy(cursor, starts[:maxd])
		for _, e := range tr.Edges {
			l := depths[e.To] - 1
			at := cursor[l]
			cursor[l]++
			f.TreeFrom[at] = int32(e.From)
			f.TreeTo[at] = int32(e.To)
			f.TreeClass[at] = int32(e.Class)
		}
		for l := 1; l <= maxd; l++ {
			f.TreeLevelOff = append(f.TreeLevelOff, starts[l])
		}
		f.TreeOff = append(f.TreeOff, int32(len(f.TreeLevelOff)-1))
		for _, d := range tr.Dests {
			dep, ok := depths[d]
			if !ok || dep == 0 {
				panic(fmt.Sprintf("routing: tree does not reach destination %d", d))
			}
			f.TreeDest = append(f.TreeDest, int32(d))
			f.TreeDestDepth = append(f.TreeDestDepth, int32(dep))
		}
		f.TreeDestOff = append(f.TreeDestOff, int32(len(f.TreeDest)))
	}
	return f
}

// FlatRouter plans multicasts in dense CSR form, memoizing flattened
// plans in an optional PlanCache under representation-distinct keys (see
// planKey): a cache shared with route-form consumers never serves one
// representation where the other was requested.
type FlatRouter struct {
	Router
	cache *PlanCache
}

// Flat wraps a router with CSR flattening. c may be nil (no memoization);
// a non-nil cache may be shared freely with Cached route-form wrappers.
func Flat(r Router, c *PlanCache) *FlatRouter {
	return &FlatRouter{Router: r, cache: c}
}

// FlatSet routes an already-validated multicast set and returns the
// dense form.
func (r *FlatRouter) FlatSet(k core.MulticastSet) *FlatPlan {
	if r.cache == nil {
		return Flatten(r.Router.PlanSet(k))
	}
	key := planKey(r.Router.ID(), k, reprFlat)
	if e, ok := r.cache.get(key); ok && e.flat != nil {
		return e.flat
	}
	f := Flatten(r.Router.PlanSet(k))
	r.cache.put(key, cacheEntry{flat: f})
	return f
}

// FlatProbeBuf is the zero-allocation lookup of the scheduling
// service's steady state: it probes the cache for an
// already-canonicalized set (sorted dests) with a caller-owned reusable
// key buffer and reports a miss instead of planning, so a scheduler can
// collect misses and compute them on a worker pool. It counts exactly
// one cache lookup, and a hit with a reused buffer allocates nothing:
// the key is built into buf and the map lookup converts it without
// copying. It returns the plan, the (possibly grown) buffer for reuse
// and whether the plan was found. A nil cache or unsorted destinations
// fall back to FlatSet, which always finds. Callers must complete a miss
// with FlatCompute + FlatInstallBuf.
func (r *FlatRouter) FlatProbeBuf(k core.MulticastSet, buf []byte) (*FlatPlan, []byte, bool) {
	if r.cache == nil || !destsSorted(k.Dests) {
		return r.FlatSet(k), buf, true
	}
	buf = appendPlanKeySorted(buf[:0], r.Router.ID(), k, reprFlat)
	if e, ok := r.cache.getBytes(buf); ok && e.flat != nil {
		return e.flat, buf, true
	}
	return nil, buf, false
}

// FlatCompute plans and flattens without touching the cache — the
// compute half of a FlatProbeBuf miss, safe to run concurrently.
func (r *FlatRouter) FlatCompute(k core.MulticastSet) *FlatPlan {
	return Flatten(r.Router.PlanSet(k))
}

// FlatInstallBuf stores a FlatCompute result under the canonical key of
// an already-sorted set. Install order is the caller's, keeping FIFO
// eviction deterministic however the misses were computed.
func (r *FlatRouter) FlatInstallBuf(k core.MulticastSet, f *FlatPlan, buf []byte) []byte {
	if r.cache == nil || !destsSorted(k.Dests) {
		return buf
	}
	buf = appendPlanKeySorted(buf[:0], r.Router.ID(), k, reprFlat)
	r.cache.put(string(buf), cacheEntry{flat: f})
	return buf
}
