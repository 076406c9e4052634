package routing

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/topology"
)

// cacheShards is the shard count of every PlanCache: a power of two so
// shard selection is a mask, large enough that parallel sweeps rarely
// contend on one mutex.
const cacheShards = 16

// PlanCache is a bounded, sharded, concurrency-safe cache of routed
// plans. Keys combine the router identity with the canonicalized
// multicast set (source plus sorted destinations), so routers for
// different schemes — or the same scheme with different options — can
// share one cache without collisions. Each shard evicts in FIFO order
// once full, bounding memory under adversarial key streams.
//
// Invalidate matches every entry against the directed links its plan
// traverses, walking the plan — route form or flat arrays — and
// binary-searching the sorted dead links, so installs carry no link tag
// and a fault delta evicts exactly the plans that touch dead hardware
// instead of nuking the whole cache; entries for unaffected traffic —
// and their ~25x cached speedup — survive the epoch change.
//
// Cached plans are shared: callers must treat them as immutable.
type PlanCache struct {
	shards        [cacheShards]cacheShard
	perShard      int
	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
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

// cacheEntry is one cached plan in the representation its key encodes:
// route form (plan) or dense CSR form (flat). Exactly one of plan/flat is
// set.
type cacheEntry struct {
	plan Plan
	flat *FlatPlan
	// aux is an opaque caller word stored with the entry (see PutPlanAux)
	// — e.g. the fault router's per-plan degraded accounting, so a cache
	// hit reproduces the accounting of the original planning byte for
	// byte.
	aux uint64
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

type cacheShard struct {
	mu    sync.Mutex
	plans map[string]cacheEntry
	fifo  []string // insertion order, for eviction
}

// Plan representation tags, appended to every cache key so a cache
// populated with one representation never serves the other shape: a
// pre-flattening consumer asking for the route form must not receive a
// CSR entry, and vice versa.
const (
	reprPlan byte = 'p'
	reprFlat byte = 'f'
)

// NewPlanCache returns a cache holding at most capacity plans (rounded
// up to a multiple of the shard count). capacity <= 0 selects a default
// of 4096.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 4096
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	c := &PlanCache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].plans = make(map[string]cacheEntry)
	}
	return c
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.plans)
		s.mu.Unlock()
	}
	return total
}

// Stats returns the cumulative counter snapshot.
func (c *PlanCache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
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
// plans over surviving hardware keep their entries. Repairs need no
// invalidation at all — a plan that avoided a link stays valid when the
// link returns — so delta consumers call this only with killed channels.
func (c *PlanCache) Invalidate(pairs []uint64) int {
	if len(pairs) == 0 {
		return 0
	}
	sorted := sortedUniq(append([]uint64(nil), pairs...))
	evicted := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, e := range s.plans {
			if e.touchesAny(sorted) {
				delete(s.plans, key)
				evicted++
			}
		}
		s.mu.Unlock()
	}
	c.invalidations.Add(uint64(evicted))
	return evicted
}

// InvalidateAll evicts every cached plan and returns the number evicted —
// the nuke-everything baseline targeted invalidation is measured against.
func (c *PlanCache) InvalidateAll() int {
	evicted := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		evicted += len(s.plans)
		s.plans = make(map[string]cacheEntry)
		s.fifo = s.fifo[:0]
		s.mu.Unlock()
	}
	c.invalidations.Add(uint64(evicted))
	return evicted
}

// shardFor selects a shard by FNV-1a over the key.
func shardFor[K string | []byte](c *PlanCache, key K) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&(cacheShards-1)]
}

// get looks key up and counts the hit or miss. For a key held in a
// reusable byte buffer the map access converts it without allocating
// (the compiler's map[string(b)] special case), so a cache hit on the
// scheduling hot path costs no allocation.
func get[K string | []byte](c *PlanCache, key K) (cacheEntry, bool) {
	s := shardFor(c, key)
	s.mu.Lock()
	e, ok := s.plans[string(key)]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

func (c *PlanCache) put(key string, e cacheEntry) {
	s := shardFor(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.plans[key]; dup {
		// A concurrent planner beat us to it; the plans are identical
		// (deterministic routing), keep the incumbent.
		return
	}
	for len(s.plans) >= c.perShard {
		oldest := s.fifo[0]
		s.fifo = s.fifo[1:]
		// Invalidation removes entries without rewriting the FIFO; skip
		// keys it already evicted.
		if _, live := s.plans[oldest]; live {
			delete(s.plans, oldest)
			c.evictions.Add(1)
		}
	}
	s.plans[key] = e
	s.fifo = append(s.fifo, key)
}

// planKey canonicalizes a multicast set into a cache key: the plan
// representation tag, the router identity, the source, and the
// destinations in sorted order, all varint-encoded. Destination order
// never changes a scheme's routes (every scheme re-sorts by label), so
// sets that differ only in listing order share one entry. The
// representation tag keeps route-form and CSR entries for the same
// (router, set) distinct.
func planKey(id string, k core.MulticastSet, repr byte) string {
	k.Dests = slices.Clone(k.Dests)
	slices.Sort(k.Dests)
	return string(appendPlanKeySorted(make([]byte, 0, len(id)+2+(len(k.Dests)+1)*3), id, k, repr))
}

// appendPlanKeySorted appends the cache key of (repr, id, k) to dst and
// returns the grown buffer. It requires k.Dests already sorted
// ascending, and copies and sorts nothing: with a reused buffer the key
// build is allocation-free.
func appendPlanKeySorted(dst []byte, id string, k core.MulticastSet, repr byte) []byte {
	dst = append(dst, repr)
	dst = append(dst, id...)
	dst = append(dst, 0)
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

// GetPlanAux looks up the route-form plan cached under (id, k) and the
// opaque aux word stored with it. It is the exported lookup for callers
// that manage caching themselves — the degraded-mode fault router caches
// only fully-served plans, a policy the generic Cached wrapper cannot
// express.
func (c *PlanCache) GetPlanAux(id string, k core.MulticastSet) (Plan, uint64, bool) {
	e, ok := get(c, planKey(id, k, reprPlan))
	if !ok {
		return Plan{}, 0, false
	}
	return e.plan, e.aux, true
}

// PutPlanAux caches a route-form plan under (id, k) with an opaque aux
// word stored alongside — the degraded fault router records each plan's
// accounting flags here, so a later cache hit reports the same stats the
// original planning did.
func (c *PlanCache) PutPlanAux(id string, k core.MulticastSet, p Plan, aux uint64) {
	c.put(planKey(id, k, reprPlan), cacheEntry{plan: p, aux: aux})
}

// cachedRouter memoizes PlanSet through a PlanCache.
type cachedRouter struct {
	Router
	cache *PlanCache
}

// PlanSet implements Router, consulting the cache first.
func (r *cachedRouter) PlanSet(k core.MulticastSet) Plan {
	key := planKey(r.Router.ID(), k, reprPlan)
	if e, ok := get(r.cache, key); ok {
		return e.plan
	}
	p := r.Router.PlanSet(k)
	r.cache.put(key, cacheEntry{plan: p})
	return p
}

// cachedLiveRouter is cachedRouter for adaptive schemes: deterministic
// plans are cached, live (oracle-dependent) plans never are.
type cachedLiveRouter struct {
	cachedRouter
	live LiveRouter
}

// PlanLive implements LiveRouter, bypassing the cache.
func (r *cachedLiveRouter) PlanLive(k core.MulticastSet, oracle dfr.ChannelOracle) Plan {
	return r.live.PlanLive(k, oracle)
}

// Cached wraps a router with a plan cache. Multiple routers — of any
// scheme — may share one cache; keys are namespaced by router identity.
// Live (adaptive) plans are never cached: wrapping a LiveRouter returns
// a LiveRouter whose PlanLive passes straight through.
func Cached(r Router, c *PlanCache) Router {
	if lr, ok := r.(LiveRouter); ok {
		return &cachedLiveRouter{cachedRouter: cachedRouter{Router: r, cache: c}, live: lr}
	}
	return &cachedRouter{Router: r, cache: c}
}
