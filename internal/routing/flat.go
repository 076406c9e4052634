package routing

import (
	"fmt"
	"slices"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/topology"
)

// FlatPlan is the dense CSR (compressed sparse row) form of a Plan: every
// route, level, channel and delivery packed into flat []int32 arrays
// instead of pointer-chasing per-route slices. It is the one plan form
// the simulator injects (wormsim.Network.InjectFlatTag): delivery levels
// and channel ids are resolved once at flattening time, so neither
// injection nor the scheduler's load accounting looks a channel up, and
// injection walks contiguous memory and allocates nothing.
//
// Layout. Every route is a list of levels crossed in lock step, the way
// Section 6.1 describes tree-like multicast: a tree's levels are its
// frontiers, and a path is the tree whose every level holds one channel
// (its hops in order). Routes are a two-level CSR: route r owns level
// bounds LevelOff[RouteOff[r]:RouteOff[r+1]+1], each consecutive pair
// bounding one level's channel ids in Chan, so Chan holds each route's
// channels level by level. Its deliveries are the parallel Dest/DestLevel
// rows of [DestOff[r], DestOff[r+1]), DestLevel being the 1-based level
// whose channel arrives at the destination: a path position or a tree
// depth. Paths come first, then trees, each in plan order. Channel ids
// are the dfr.ChannelNumbering of the topology the plan was flattened
// in, which the plan records (Numbering): PlanCache.Invalidate decodes
// them to match plans by directed link, and the simulator refuses a plan
// numbered in a topology other than its own.
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
	RouteOff  []int32 // len routes+1: level-bound index per route
	LevelOff  []int32 // channel-row bounds; level l of route r is [LevelOff[RouteOff[r]+l], LevelOff[RouteOff[r]+l+1])
	Chan      []int32 // channel ids, route by route, level by level
	DestOff   []int32 // len routes+1: delivery-row bounds per route
	Dest      []int32 // destination node ids
	DestLevel []int32 // 1-based level that reaches each destination

	// TotalDests is the destination count of the whole multicast,
	// including destinations of degenerate routes dropped from the arrays.
	TotalDests int32

	chans dfr.ChannelNumbering
}

// Routes returns the number of flattened routes, or -1 for the zero
// FlatPlan, which was never flattened.
func (f *FlatPlan) Routes() int { return len(f.RouteOff) - 1 }

// Numbering returns the channel numbering the plan's ids are in: that of
// the topology it was flattened in.
func (f *FlatPlan) Numbering() dfr.ChannelNumbering { return f.chans }

// touchesAny reports whether the plan traverses any of the given directed
// links (ChannelPair values, sorted ascending) — the flat-entry half of
// PlanCache.Invalidate, walked there so installs stay untagged.
func (f *FlatPlan) touchesAny(pairs []uint64) bool {
	for _, id := range f.Chan {
		if c, _ := f.chans.Channel(id); hasPair(pairs, c.From, c.To) {
			return true
		}
	}
	return false
}

// Flatten converts a routed plan into a new dense CSR plan over t's
// channels: the one-shot case of Flattener, sizing every array exactly
// but LevelOff, which is sized for one level per channel.
func Flatten(t topology.Topology, p Plan) *FlatPlan {
	fl := Flattener{chans: dfr.NewChannelNumbering(t)}
	return fl.Flatten(new(FlatPlan), p)
}

// Flattener converts routed plans into their dense CSR form, refilling a
// caller-owned FlatPlan in place. It numbers channels in one topology and
// keeps an epoch-stamped node scratch for tree depths; once the plan's
// arrays and the scratch have grown to the largest plan seen, flattening
// allocates nothing. Build one with NewFlattener; a Flattener must not be
// used concurrently.
type Flattener struct {
	chans dfr.ChannelNumbering
	stamp []uint32 // node -> the tree epoch in which depth[node] is valid
	depth []int32
	epoch uint32
	level []int32 // per-depth row counts, then placement cursors
	ids   []int32 // the current tree's channel ids, in edge order
}

// NewFlattener returns a flattener for plans over t's channels.
func NewFlattener(t topology.Topology) *Flattener {
	return &Flattener{chans: dfr.NewChannelNumbering(t)}
}

// Flatten refills f with the dense form of p, resolving destination path
// positions (first occurrence), tree depths and channel ids, and returns
// f. The two input walks, over paths and over trees, write through one
// writer: a route's channels level by level, then its deliveries, then
// endRoute. It panics on a malformed plan: a hop that is not a channel of
// the flattener's topology, a path that does not visit one of its
// destinations, a tree edge that leaves a node the tree has not reached
// yet or reaches a node twice, a tree root with a negative id, or a tree
// that does not reach one of its destinations.
func (fl *Flattener) Flatten(f *FlatPlan, p Plan) *FlatPlan {
	var routes, chans, dests int
	for _, pr := range p.Paths {
		if len(pr.Nodes) >= 2 {
			routes++
			chans += len(pr.Nodes) - 1
			dests += len(pr.Dests)
		}
	}
	maxNode := topology.NodeID(-1)
	for _, tr := range p.Trees {
		if len(tr.Edges) > 0 {
			routes++
			chans += len(tr.Edges)
			dests += len(tr.Dests)
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
	f.RouteOff = append(reuse(f.RouteOff, routes+1), 0)
	f.LevelOff = append(reuse(f.LevelOff, chans+1), 0) // a level holds at least one channel
	f.Chan = reuse(f.Chan, chans)
	f.DestOff = append(reuse(f.DestOff, routes+1), 0)
	f.Dest = reuse(f.Dest, dests)
	f.DestLevel = reuse(f.DestLevel, dests)
	f.TotalDests = 0
	f.chans = fl.chans
	for _, pr := range p.Paths {
		f.TotalDests += int32(len(pr.Dests))
		if len(pr.Nodes) < 2 {
			continue
		}
		for i := 1; i < len(pr.Nodes); i++ {
			class := pr.Class // pr.HopClass(i-1), without copying pr per hop
			if pr.Classes != nil {
				class = pr.Classes[i-1]
			}
			f.Chan = append(f.Chan, fl.chanID(dfr.Channel{From: pr.Nodes[i-1], To: pr.Nodes[i], Class: class}))
			f.LevelOff = append(f.LevelOff, int32(len(f.Chan)))
		}
		for _, d := range pr.Dests {
			pos := slices.Index(pr.Nodes, d)
			if pos <= 0 {
				panic(fmt.Sprintf("routing: path does not visit destination %d", d))
			}
			f.Dest = append(f.Dest, int32(d))
			f.DestLevel = append(f.DestLevel, int32(pos))
		}
		f.endRoute()
	}
	for _, tr := range p.Trees {
		f.TotalDests += int32(len(tr.Dests))
		if len(tr.Edges) > 0 {
			fl.tree(f, tr)
		}
	}
	return f
}

// endRoute closes the route whose levels and deliveries were just
// written.
func (f *FlatPlan) endRoute() {
	f.RouteOff = append(f.RouteOff, int32(len(f.LevelOff)-1))
	f.DestOff = append(f.DestOff, int32(len(f.Dest)))
}

// tree appends one tree's lock-step levels and deliveries to f. Its
// channels are numbered first, so a hop off the topology is refused
// before any node is reached. Edges are parent-before-child, so one pass
// resolves every node's depth; a second buckets the channels by level,
// keeping edge order within each level (the frontier order the simulator
// arbitrates in).
func (fl *Flattener) tree(f *FlatPlan, tr dfr.TreeRoute) {
	ids := fl.ids[:0]
	for _, e := range tr.Edges {
		ids = append(ids, fl.chanID(e))
	}
	fl.ids = ids
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
	at := int32(len(f.Chan))
	for d := 1; d <= int(maxd); d++ {
		level[d], at = at, at+level[d]
		f.LevelOff = append(f.LevelOff, at)
	}
	f.Chan = f.Chan[:at]
	for j, e := range tr.Edges {
		f.Chan[level[fl.depth[e.To]]] = ids[j]
		level[fl.depth[e.To]]++
	}
	fl.level = level
	for _, d := range tr.Dests {
		dep := fl.depthOf(d)
		if dep <= 0 {
			panic(fmt.Sprintf("routing: tree does not reach destination %d", d))
		}
		f.Dest = append(f.Dest, int32(d))
		f.DestLevel = append(f.DestLevel, dep)
	}
	f.endRoute()
}

// chanID returns c's channel id, panicking with the hop's name when c is
// not a channel of the flattener's topology.
func (fl *Flattener) chanID(c dfr.Channel) int32 {
	id, ok := fl.chans.ID(c)
	if !ok {
		panic(fmt.Sprintf("routing: hop %v is not a channel of %s", c, fl.chans.Topology().Name()))
	}
	return id
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
// plans in the PlanCache it owns.
type FlatRouter struct {
	Router
	cache *PlanCache
}

// Flat wraps a router with CSR flattening and the plan cache c, which
// serves this router alone from then on (see PlanCache.Own).
func Flat(r Router, c *PlanCache) *FlatRouter {
	c.Own(r)
	return &FlatRouter{Router: r, cache: c}
}

// FlatSet routes an already-validated multicast set and returns the
// dense form.
func (r *FlatRouter) FlatSet(k core.MulticastSet) *FlatPlan {
	key := planKey(k)
	if e, ok := get(r.cache, key); ok {
		return e.flat
	}
	f := r.FlatCompute(k)
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
// and whether the plan was found. Unsorted destinations fall back to
// FlatSet, which always finds. Callers must complete a miss with
// FlatCompute + FlatInstallBuf.
func (r *FlatRouter) FlatProbeBuf(k core.MulticastSet, buf []byte) (*FlatPlan, []byte, bool) {
	if !destsSorted(k.Dests) {
		return r.FlatSet(k), buf, true
	}
	buf = appendPlanKeySorted(buf[:0], k)
	if e, ok := get(r.cache, buf); ok {
		return e.flat, buf, true
	}
	return nil, buf, false
}

// FlatCompute plans and flattens without touching the cache — the
// compute half of a FlatProbeBuf miss, safe to run concurrently. Channel
// ids are numbered in the router's state topology.
func (r *FlatRouter) FlatCompute(k core.MulticastSet) *FlatPlan {
	return Flatten(r.Router.State().Topology(), r.Router.PlanSet(k))
}

// FlatInstallBuf stores a FlatCompute result under the canonical key of
// an already-sorted set. Install order is the caller's, keeping FIFO
// eviction deterministic however the misses were computed.
func (r *FlatRouter) FlatInstallBuf(k core.MulticastSet, f *FlatPlan, buf []byte) []byte {
	if !destsSorted(k.Dests) {
		return buf
	}
	buf = appendPlanKeySorted(buf[:0], k)
	r.cache.put(string(buf), cacheEntry{flat: f})
	return buf
}
