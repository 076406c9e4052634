package routing

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"multicastnet/internal/core"
	"multicastnet/internal/topology"
)

// PlanCache is a bounded, concurrency-safe cache of the plans of one
// router. Chapter 6's routing function is deterministic, so once the
// router is fixed a plan is a pure function of the multicast set: keys
// are the canonicalized set alone (source plus sorted destinations).
// The first of Cached, Flat and fault.LiveRouter.AttachCache to receive
// a cache owns it (see Own). Entries live in one map under one mutex and
// are evicted in FIFO order once the cache is full, bounding memory
// under adversarial key streams.
//
// Invalidate matches every entry against the directed links its plan
// traverses, walking the plan — route form, or a flat plan's channel ids
// decoded through the numbering it records — and binary-searching the
// sorted dead links, so installs carry no link tag
// and a fault delta evicts exactly the plans that touch dead hardware
// instead of nuking the whole cache; entries for unaffected traffic —
// and their ~25x cached speedup — survive the epoch change.
//
// Cached plans are shared: callers must treat them as immutable.
type PlanCache struct {
	mu       sync.Mutex
	owner    Router // the one router served; nil until Own
	capacity int
	plans    map[string]cacheEntry
	fifo     []string // the keys of plans, oldest first, for eviction
	stats    CacheStats
}

// CacheStats is the cumulative counter snapshot of a PlanCache.
type CacheStats struct {
	// Hits and Misses count lookups.
	Hits, Misses uint64
	// Evictions counts entries dropped by the FIFO capacity bound.
	Evictions uint64
	// Invalidations counts entries evicted by Invalidate/InvalidateAll —
	// plans whose channels a fault delta killed (or, for InvalidateAll,
	// the nuke-everything baseline).
	Invalidations uint64
}

// HitRate returns Hits / (Hits + Misses), or 1 with no lookups.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cacheEntry is one cached plan in its owner's representation: route
// form (plan) for Cached and the fault router, dense CSR form (flat) for
// Flat.
type cacheEntry struct {
	plan Plan
	flat *FlatPlan
}

// touchesAny reports whether the entry's plan traverses any of the given
// directed links (sorted ascending).
func (e *cacheEntry) touchesAny(pairs []uint64) bool {
	if e.flat != nil {
		return e.flat.touchesAny(pairs)
	}
	for _, pr := range e.plan.Paths {
		for i := 1; i < len(pr.Nodes); i++ {
			if hasPair(pairs, pr.Nodes[i-1], pr.Nodes[i]) {
				return true
			}
		}
	}
	for _, tr := range e.plan.Trees {
		for _, c := range tr.Edges {
			if hasPair(pairs, c.From, c.To) {
				return true
			}
		}
	}
	return false
}

// hasPair reports whether the directed link from -> to is among pairs
// (ChannelPair values, sorted ascending).
func hasPair(pairs []uint64, from, to topology.NodeID) bool {
	_, ok := slices.BinarySearch(pairs, ChannelPair(from, to))
	return ok
}

// NewPlanCache returns a cache holding at most capacity plans.
// capacity <= 0 selects a default of 4096.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &PlanCache{capacity: capacity, plans: make(map[string]cacheEntry)}
}

// Own makes r the one router the cache serves. Cached, Flat and
// fault.LiveRouter.AttachCache call it on the cache they are handed.
// Keys hold the multicast set alone, so a second router would be served
// the first one's plans: Own panics, naming the owner's scheme, when the
// cache already has an owner.
func (c *PlanCache) Own(r Router) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.owner != nil {
		panic(fmt.Sprintf("routing: plan cache already serves a %s router", c.owner.Scheme()))
	}
	c.owner = r
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
}

// Stats returns the cumulative counter snapshot.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ChannelPair encodes the directed link from -> to as the uint64 values
// Invalidate matches plans against. Channel classes are deliberately folded
// away: a link fault kills every class of both directions and a node
// fault every incident link, so matching on the directed link is exact
// for them; for a single virtual-channel fault it over-invalidates the
// other classes of that direction — conservative, never unsafe.
func ChannelPair(from, to topology.NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// sortedUniq sorts pairs ascending and removes duplicates in place.
func sortedUniq(pairs []uint64) []uint64 {
	if len(pairs) == 0 {
		return nil
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	out := pairs[:1]
	for _, p := range pairs[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// Invalidate evicts every cached plan that traverses any of the given
// directed links (as ChannelPair values, any order) and returns the
// number evicted. This is the targeted eviction a fault delta triggers:
// plans over surviving hardware keep their entries and their places in
// the eviction order. Repairs need no invalidation at all — a plan that
// avoided a link stays valid when the link returns — so delta consumers
// call this only with killed channels.
func (c *PlanCache) Invalidate(pairs []uint64) int {
	if len(pairs) == 0 {
		return 0
	}
	sorted := sortedUniq(append([]uint64(nil), pairs...))
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.fifo[:0]
	for _, key := range c.fifo {
		if e := c.plans[key]; e.touchesAny(sorted) {
			delete(c.plans, key)
		} else {
			kept = append(kept, key)
		}
	}
	evicted := len(c.fifo) - len(kept)
	c.fifo = kept
	c.stats.Invalidations += uint64(evicted)
	return evicted
}

// InvalidateAll evicts every cached plan and returns the number evicted —
// the nuke-everything baseline targeted invalidation is measured against.
func (c *PlanCache) InvalidateAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	evicted := len(c.plans)
	clear(c.plans)
	c.fifo = c.fifo[:0]
	c.stats.Invalidations += uint64(evicted)
	return evicted
}

// get looks key up and counts the hit or miss. For a key held in a
// reusable byte buffer the map access converts it without allocating
// (the compiler's map[string(b)] special case), so a cache hit on the
// scheduling hot path costs no allocation.
func get[K string | []byte](c *PlanCache, key K) (cacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.plans[string(key)]
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	c.mu.Unlock()
	return e, ok
}

func (c *PlanCache) put(key string, e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.plans[key]; dup {
		// A concurrent planner beat us to it; the plans are identical
		// (deterministic routing), keep the incumbent.
		return
	}
	if len(c.plans) >= c.capacity {
		delete(c.plans, c.fifo[0])
		c.fifo = c.fifo[1:]
		c.stats.Evictions++
	}
	c.plans[key] = e
	c.fifo = append(c.fifo, key)
}

// keyBuf is the size of the stack buffers plan keys are built in; a
// longer key grows onto the heap.
const keyBuf = 256

// appendPlanKey appends the cache key of k to dst and returns the grown
// buffer: the source, then the destinations in sorted order, all
// varint-encoded. Destination order never changes a scheme's routes
// (every scheme re-sorts by label), so sets that differ only in listing
// order share one entry. Unsorted destinations are sorted in a stack
// copy, so with a stack dst a key of up to 64 destinations allocates
// nothing.
func appendPlanKey(dst []byte, k core.MulticastSet) []byte {
	if !destsSorted(k.Dests) {
		var ds [64]topology.NodeID
		k.Dests = append(ds[:0], k.Dests...)
		slices.Sort(k.Dests)
	}
	return appendPlanKeySorted(dst, k)
}

// appendPlanKeySorted appends the cache key of k to dst and returns the
// grown buffer. It requires k.Dests already sorted ascending, and copies
// and sorts nothing: with a reused buffer the key build is
// allocation-free.
func appendPlanKeySorted(dst []byte, k core.MulticastSet) []byte {
	dst = binary.AppendUvarint(dst, uint64(k.Source))
	for _, d := range k.Dests {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	return dst
}

// destsSorted reports whether dests is sorted ascending — the
// precondition of appendPlanKeySorted.
func destsSorted(dests []topology.NodeID) bool {
	for i := 1; i < len(dests); i++ {
		if dests[i-1] > dests[i] {
			return false
		}
	}
	return true
}

// GetPlan looks up the route-form plan cached for k. With PutPlan it is
// the cache interface of a router that manages caching itself: the
// degraded fault router caches only fully served plans, a policy the
// Cached wrapper cannot express.
func (c *PlanCache) GetPlan(k core.MulticastSet) (Plan, bool) {
	var buf [keyBuf]byte
	e, ok := get(c, appendPlanKey(buf[:0], k))
	return e.plan, ok
}

// PutPlan caches the route-form plan p of k.
func (c *PlanCache) PutPlan(k core.MulticastSet, p Plan) {
	var buf [keyBuf]byte
	c.put(string(appendPlanKey(buf[:0], k)), cacheEntry{plan: p})
}

// cachedRouter memoizes PlanSet through a PlanCache.
type cachedRouter struct {
	Router
	cache *PlanCache
}

// PlanSet implements Router, consulting the cache first.
func (r *cachedRouter) PlanSet(k core.MulticastSet) Plan {
	var buf [keyBuf]byte
	key := appendPlanKey(buf[:0], k)
	if e, ok := get(r.cache, key); ok {
		return e.plan
	}
	p := r.Router.PlanSet(k)
	r.cache.put(string(key), cacheEntry{plan: p})
	return p
}

// Cached wraps r with a plan cache, which serves r alone from then on
// (see PlanCache.Own). The wrapper is a plain Router even when r is a
// LiveRouter: live (oracle-dependent) plans must never be cached, so
// they are planned on r itself.
func Cached(r Router, c *PlanCache) Router {
	c.Own(r)
	return &cachedRouter{Router: r, cache: c}
}
