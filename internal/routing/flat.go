package routing

import (
	"fmt"
	"slices"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/topology"
)

// FlatPlan is the dense CSR (compressed sparse row) form of a Plan: every
// path, tree level, channel and delivery packed into flat []int32 arrays
// instead of pointer-chasing per-route slices. It is the one plan form
// the simulator injects (wormsim.Network.InjectFlatTag): path positions
// and tree depths are resolved once at flattening time, so injection
// walks contiguous memory and allocates nothing.
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
// retained in TotalDests, so the multicast's size counts every
// destination its plan named.
//
// A FlatPlan returned by Flatten or cached by a FlatRouter is immutable
// and safe to share across goroutines and cache entries; one refilled by
// a Flattener belongs to its caller.
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

// touchesAny reports whether the plan traverses any of the given directed
// links (ChannelPair values, sorted ascending) — the flat-entry half of
// PlanCache.Invalidate, walked there so installs stay untagged.
func (f *FlatPlan) touchesAny(pairs []uint64) bool {
	hit := func(from, to int32) bool {
		_, ok := slices.BinarySearch(pairs, ChannelPair(topology.NodeID(from), topology.NodeID(to)))
		return ok
	}
	for p := 0; p < f.Paths(); p++ {
		for i := f.PathOff[p] + 1; i < f.PathOff[p+1]; i++ {
			if hit(f.PathNodes[i-1], f.PathNodes[i]) {
				return true
			}
		}
	}
	for c := range f.TreeFrom {
		if hit(f.TreeFrom[c], f.TreeTo[c]) {
			return true
		}
	}
	return false
}

// Flatten converts a routed plan into a new dense CSR plan: the one-shot
// case of Flattener, sizing every array exactly.
func Flatten(p Plan) *FlatPlan {
	var fl Flattener
	return fl.Flatten(new(FlatPlan), p)
}

// Flattener converts routed plans into their dense CSR form, refilling a
// caller-owned FlatPlan in place. It keeps an epoch-stamped node scratch
// for tree depths; once the plan's arrays and the scratch have grown to
// the largest plan seen, flattening allocates nothing. The zero value is
// ready to use; a Flattener must not be used concurrently.
type Flattener struct {
	stamp []uint32 // node -> the tree epoch in which depth[node] is valid
	depth []int32
	epoch uint32
	level []int32 // per-depth row counts, then placement cursors
}

// Flatten refills f with the dense form of p, resolving destination path
// positions (first occurrence) and tree depths, and returns f. It panics
// on a malformed plan: a path that does not visit one of its
// destinations, a tree edge that leaves a node the tree has not reached
// yet or reaches a node twice, a tree node with a negative id, or a tree
// that does not reach one of its destinations.
func (fl *Flattener) Flatten(f *FlatPlan, p Plan) *FlatPlan {
	var paths, nodes, pathDests, trees, edges, treeDests int
	for _, pr := range p.Paths {
		if len(pr.Nodes) >= 2 {
			paths++
			nodes += len(pr.Nodes)
			pathDests += len(pr.Dests)
		}
	}
	maxNode := topology.NodeID(-1)
	for _, tr := range p.Trees {
		if len(tr.Edges) > 0 {
			trees++
			edges += len(tr.Edges)
			treeDests += len(tr.Dests)
			maxNode = max(maxNode, tr.Root)
			for _, e := range tr.Edges {
				maxNode = max(maxNode, e.From, e.To)
			}
		}
	}
	if n := int(maxNode) + 1; n > len(fl.stamp) {
		fl.stamp = append(fl.stamp, make([]uint32, n-len(fl.stamp))...)
		fl.depth = append(fl.depth, make([]int32, n-len(fl.depth))...)
	}
	f.PathOff = append(reuse(f.PathOff, paths+1), 0)
	f.PathNodes = reuse(f.PathNodes, nodes)
	f.PathClass = reuse(f.PathClass, nodes-paths)
	f.PathDestOff = append(reuse(f.PathDestOff, paths+1), 0)
	f.PathDest = reuse(f.PathDest, pathDests)
	f.PathDestPos = reuse(f.PathDestPos, pathDests)
	f.TreeOff = append(reuse(f.TreeOff, trees+1), 0)
	f.TreeLevelOff = append(f.TreeLevelOff[:0], 0)
	f.TreeFrom = reuse(f.TreeFrom, edges)
	f.TreeTo = reuse(f.TreeTo, edges)
	f.TreeClass = reuse(f.TreeClass, edges)
	f.TreeDestOff = append(reuse(f.TreeDestOff, trees+1), 0)
	f.TreeDest = reuse(f.TreeDest, treeDests)
	f.TreeDestDepth = reuse(f.TreeDestDepth, treeDests)
	f.TotalDests = 0
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
		for _, d := range pr.Dests {
			pos := slices.Index(pr.Nodes, d)
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
		if len(tr.Edges) > 0 {
			fl.tree(f, tr)
		}
	}
	return f
}

// tree appends one tree's lock-step levels and deliveries to f. Edges
// are parent-before-child, so one pass resolves every node's depth; a
// second buckets the channels by level, keeping edge order within each
// level (the frontier order the simulator arbitrates in).
func (fl *Flattener) tree(f *FlatPlan, tr dfr.TreeRoute) {
	if fl.epoch++; fl.epoch == 0 { // wrapped: no stamp may match a new epoch
		clear(fl.stamp)
		fl.epoch = 1
	}
	fl.reach(tr.Root, 0)
	maxd := int32(0)
	for _, e := range tr.Edges {
		d := fl.depthOf(e.From)
		if d < 0 {
			panic(fmt.Sprintf("routing: tree edge %v leaves node %d before the tree reaches it", e, e.From))
		}
		if fl.depthOf(e.To) >= 0 {
			panic(fmt.Sprintf("routing: tree edge %v reaches node %d twice", e, e.To))
		}
		fl.reach(e.To, d+1)
		maxd = max(maxd, d+1)
	}
	level := reuse(fl.level, int(maxd)+1)[:maxd+1]
	clear(level)
	for _, e := range tr.Edges {
		level[fl.depth[e.To]]++
	}
	at := int32(len(f.TreeFrom))
	for d := 1; d <= int(maxd); d++ {
		level[d], at = at, at+level[d]
		f.TreeLevelOff = append(f.TreeLevelOff, at)
	}
	f.TreeFrom, f.TreeTo, f.TreeClass = f.TreeFrom[:at], f.TreeTo[:at], f.TreeClass[:at]
	for _, e := range tr.Edges {
		i := level[fl.depth[e.To]]
		level[fl.depth[e.To]]++
		f.TreeFrom[i], f.TreeTo[i], f.TreeClass[i] = int32(e.From), int32(e.To), int32(e.Class)
	}
	fl.level = level
	f.TreeOff = append(f.TreeOff, int32(len(f.TreeLevelOff)-1))
	for _, d := range tr.Dests {
		dep := fl.depthOf(d)
		if dep <= 0 {
			panic(fmt.Sprintf("routing: tree does not reach destination %d", d))
		}
		f.TreeDest = append(f.TreeDest, int32(d))
		f.TreeDestDepth = append(f.TreeDestDepth, dep)
	}
	f.TreeDestOff = append(f.TreeDestOff, int32(len(f.TreeDest)))
}

// reach records node at depth d in the current tree; Flatten has sized
// the scratch to every node its trees name.
func (fl *Flattener) reach(node topology.NodeID, d int32) {
	if node < 0 {
		panic(fmt.Sprintf("routing: tree reaches negative node %d", node))
	}
	fl.stamp[node] = fl.epoch
	fl.depth[node] = d
}

// depthOf returns node's depth in the current tree, or -1 when the tree
// has not reached it.
func (fl *Flattener) depthOf(node topology.NodeID) int32 {
	if uint(node) >= uint(len(fl.stamp)) || fl.stamp[node] != fl.epoch {
		return -1
	}
	return fl.depth[node]
}

// reuse empties s and makes room for n elements, allocating (exactly n)
// only when s's capacity falls short.
func reuse(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, 0, n)
	}
	return s[:0]
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
