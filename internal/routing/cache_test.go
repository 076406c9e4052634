package routing

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

func testRouter(t *testing.T, name string) (Router, *State, topology.Topology) {
	t.Helper()
	m := topology.NewMesh2D(6, 6)
	st, err := NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(name, st)
	if err != nil {
		t.Fatal(err)
	}
	return r, st, m
}

func TestCacheHitsAndEquality(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(64)
	cr := Cached(r, c)
	k := core.MustMulticastSet(m, 3, []topology.NodeID{10, 20, 30})
	first := cr.PlanSet(k)
	second := cr.PlanSet(k)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("Stats() = (%d hits, %d misses), want (1, 1)", st.Hits, st.Misses)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached plan differs from computed plan")
	}
	if !reflect.DeepEqual(first, r.PlanSet(k)) {
		t.Fatal("cached plan differs from the uncached router's plan")
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

func TestCacheCanonicalizesDestOrder(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(64)
	cr := Cached(r, c)
	a := core.MustMulticastSet(m, 3, []topology.NodeID{10, 20, 30})
	b := core.MustMulticastSet(m, 3, []topology.NodeID{30, 10, 20})
	cr.PlanSet(a)
	cr.PlanSet(b)
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("reordered destinations missed the cache (hits = %d)", st.Hits)
	}
}

// TestCacheNamespacesByRouterID: keys hold the multicast set alone, so
// routers are kept apart by cache, one each. Two schemes planning one
// set miss once in their own caches and then hit their own plans, and a
// refused hand-off of one router's cache to the other leaves the owner's
// entry as it was.
func TestCacheNamespacesByRouterID(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	st, err := NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	dual, _ := New("dual-path", st)
	fixed, _ := New("fixed-path", st)
	dc, fc := NewPlanCache(64), NewPlanCache(64)
	cd, cf := Cached(dual, dc), Cached(fixed, fc)
	k := core.MustMulticastSet(m, 3, []topology.NodeID{10, 20, 30})
	p1 := cd.PlanSet(k)
	p2 := cf.PlanSet(k)
	if reflect.DeepEqual(p1, p2) {
		t.Fatal("dual-path and fixed-path returned identical plans — per-router caches untestable")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dual-path's cache was handed to fixed-path without a panic")
			}
		}()
		Cached(fixed, dc)
	}()
	if !reflect.DeepEqual(cd.PlanSet(k), p1) {
		t.Fatal("dual-path plan corrupted by the refused fixed-path hand-off")
	}
	if !reflect.DeepEqual(cf.PlanSet(k), p2) {
		t.Fatal("fixed-path plan corrupted by the dual-path entry")
	}
	for _, c := range []struct {
		name  string
		cache *PlanCache
	}{{"dual-path", dc}, {"fixed-path", fc}} {
		if s := c.cache.Stats(); s.Misses != 1 || s.Hits != 1 || c.cache.Len() != 1 {
			t.Errorf("%s cache: %d misses, %d hits, %d plans; want 1, 1, 1",
				c.name, s.Misses, s.Hits, c.cache.Len())
		}
	}
}

func TestCacheBounded(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	capacity := 32
	c := NewPlanCache(capacity)
	cr := Cached(r, c)
	rng := stats.NewRand(11)
	for i := 0; i < 500; i++ {
		cr.PlanSet(randomSet(m, rng, 1+rng.Intn(8)))
	}
	if c.Len() > capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", c.Len(), capacity)
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	if c := NewPlanCache(0); c.capacity != 4096 {
		t.Fatalf("default capacity %d, want 4096", c.capacity)
	}
}

func TestCachedPlanValidatesSet(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	cr := Cached(r, NewPlanCache(8))
	k := core.MustMulticastSet(m, 0, []topology.NodeID{4, 8})
	for i := 0; i < 2; i++ {
		if err := cr.PlanSet(k).Validate(m, k); err != nil {
			t.Errorf("cached plan %d: %v", i, err)
		}
	}
}

func TestCachedLiveRouterBypassesCache(t *testing.T) {
	r, _, m := testRouter(t, "adaptive-dual-path")
	c := NewPlanCache(64)
	cr := Cached(r, c)
	if _, ok := cr.(LiveRouter); ok {
		t.Fatal("Cached returned a LiveRouter; live plans belong on the router itself, uncached")
	}
	k := core.MustMulticastSet(m, 3, []topology.NodeID{10, 20, 30})
	lr := r.(LiveRouter)
	lr.PlanLive(k, dfr.IdleOracle())
	lr.PlanLive(k, dfr.IdleOracle())
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("PlanLive touched the cache: (%d hits, %d misses)", st.Hits, st.Misses)
	}
	cr.PlanSet(k)
	cr.PlanSet(k)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("deterministic PlanSet not cached: (%d hits, %d misses)", st.Hits, st.Misses)
	}
}

func TestCachedRouterNotLiveForDeterministicSchemes(t *testing.T) {
	r, _, _ := testRouter(t, "dual-path")
	if _, ok := Cached(r, NewPlanCache(8)).(LiveRouter); ok {
		t.Fatal("Cached invented a LiveRouter from a deterministic scheme")
	}
}

func TestCacheConcurrent(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(128)
	cr := Cached(r, c)
	sets := make([]core.MulticastSet, 64)
	rng := stats.NewRand(23)
	for i := range sets {
		sets[i] = randomSet(m, rng, 1+rng.Intn(8))
	}
	want := make([]Plan, len(sets))
	for i, k := range sets {
		want[i] = r.PlanSet(k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := (g*31 + i) % len(sets)
				got := cr.PlanSet(sets[idx])
				if !reflect.DeepEqual(got, want[idx]) {
					t.Errorf("concurrent plan %d diverged", idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 {
		t.Error("concurrent workload produced no cache hits")
	}
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

// TestPlanCacheStatsConcurrent hammers one cache from three directions at
// once — planners, targeted (and full) invalidation, and Stats readers —
// and checks that every Stats snapshot is consistent: counters only grow,
// and after the dust settles hits+misses equals exactly the number of
// lookups issued. Run under -race this also proves the snapshot path
// takes no lock the mutators miss.
func TestPlanCacheStatsConcurrent(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(128)
	cr := Cached(r, c)
	sets := make([]core.MulticastSet, 64)
	rng := stats.NewRand(41)
	for i := range sets {
		sets[i] = randomSet(m, rng, 1+rng.Intn(8))
	}

	const planners, iters = 6, 500
	var done atomic.Bool
	var wg, aux sync.WaitGroup
	for g := 0; g < planners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cr.PlanSet(sets[(g*17+i)%len(sets)])
			}
		}(g)
	}
	aux.Add(1)
	go func() { // invalidator: the fault-delta path racing the planners
		defer aux.Done()
		irng := stats.NewRand(7)
		for i := 0; !done.Load(); i++ {
			if i%8 == 7 {
				c.InvalidateAll()
				continue
			}
			pairs := make([]uint64, 0, 4)
			for j := 0; j < 4; j++ {
				u := topology.NodeID(irng.Intn(m.Nodes() - 1))
				pairs = append(pairs, ChannelPair(u, u+1), ChannelPair(u+1, u))
			}
			c.Invalidate(pairs)
		}
	}()
	aux.Add(1)
	go func() { // stats reader: snapshots must be monotone
		defer aux.Done()
		var prev CacheStats
		for !done.Load() {
			s := c.Stats()
			if s.Hits < prev.Hits || s.Misses < prev.Misses ||
				s.Evictions < prev.Evictions || s.Invalidations < prev.Invalidations {
				t.Errorf("stats went backwards: %+v after %+v", s, prev)
				return
			}
			prev = s
		}
	}()
	wg.Wait()
	done.Store(true)
	aux.Wait()

	st := c.Stats()
	if got, want := st.Hits+st.Misses, uint64(planners*iters); got != want {
		t.Errorf("hits+misses = %d, want %d lookups", got, want)
	}
	// On a single-core scheduler the racing invalidator may never catch a
	// live entry; pin the eviction accounting deterministically instead.
	c.PutPlan(sets[0], r.PlanSet(sets[0]))
	if c.InvalidateAll() == 0 {
		t.Error("InvalidateAll evicted nothing despite a cached plan")
	}
	if got := c.Stats().Invalidations; got == 0 {
		t.Error("invalidations counter did not advance")
	}
}

// TestPlanCacheInvalidateDropsSlots: invalidation removes an evicted
// entry's FIFO slot with the entry, so a set invalidated and planned
// again holds one slot, at the back of the eviction order, however many
// times it cycles.
func TestPlanCacheInvalidateDropsSlots(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	a := core.MustMulticastSet(m, 0, []topology.NodeID{1}) // the link 0-1 alone
	dead := []uint64{ChannelPair(0, 1), ChannelPair(1, 0)}

	c := NewPlanCache(4096)
	cr := Cached(r, c)
	for i := 0; i < 1000; i++ {
		cr.PlanSet(a)
		if n := c.Invalidate(dead); n != 1 {
			t.Fatalf("cycle %d: Invalidate evicted %d plans, want 1", i, n)
		}
	}
	cr.PlanSet(a)
	if c.Len() != 1 || len(c.fifo) != 1 {
		t.Fatalf("after 1000 invalidate/re-plan cycles: %d plans, %d FIFO slots; want 1 and 1",
			c.Len(), len(c.fifo))
	}

	// Eviction order: a re-planned set is the newest entry, so a full
	// cache evicts the older b first.
	b := core.MustMulticastSet(m, 30, []topology.NodeID{35})
	d := core.MustMulticastSet(m, 24, []topology.NodeID{29})
	e := core.MustMulticastSet(m, 18, []topology.NodeID{23})
	c = NewPlanCache(3)
	cr = Cached(r, c)
	cr.PlanSet(a)
	cr.PlanSet(b)
	cr.PlanSet(d)
	if n := c.Invalidate(dead); n != 1 {
		t.Fatalf("Invalidate evicted %d plans, want a's alone", n)
	}
	cr.PlanSet(a)
	cr.PlanSet(e)
	for _, k := range []core.MulticastSet{a, d, e} {
		if _, ok := c.plans[planKey(k)]; !ok {
			t.Errorf("%v was evicted, want b, the oldest entry", k)
		}
	}
	if _, ok := c.plans[planKey(b)]; ok {
		t.Error("b, the oldest entry, survived a full cache")
	}
	if st := c.Stats(); st.Evictions != 1 || len(c.fifo) != c.Len() {
		t.Errorf("%d evictions, %d FIFO slots for %d plans; want 1 and one slot per plan",
			st.Evictions, len(c.fifo), c.Len())
	}
}

// planKey is the cache key of k as the map holds it.
func planKey(k core.MulticastSet) string { return string(appendPlanKey(nil, k)) }

// TestWarmHitsAllocationFree pins the cache's warm lookups: a Cached
// hit, a GetPlan hit and a FlatSet hit build the key in a stack buffer,
// sort an unsorted set in a stack copy and look up without converting
// the key, so each allocates nothing.
func TestWarmHitsAllocationFree(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	cr := Cached(r, NewPlanCache(0))
	fr := Flat(r, NewPlanCache(0))
	pc := NewPlanCache(0)
	for _, dests := range [][]topology.NodeID{{10, 20, 30, 35}, {35, 10, 30, 20}} {
		k := core.MustMulticastSet(m, 3, dests)
		cr.PlanSet(k)
		fr.FlatSet(k)
		pc.PutPlan(k, r.PlanSet(k))
		for name, lookup := range map[string]func(){
			"Cached":  func() { cr.PlanSet(k) },
			"FlatSet": func() { fr.FlatSet(k) },
			"GetPlan": func() { pc.GetPlan(k) },
		} {
			if got := testing.AllocsPerRun(10, lookup); got != 0 {
				t.Errorf("%s hit on destinations %v: %.1f allocations, want 0", name, dests, got)
			}
		}
	}
}
