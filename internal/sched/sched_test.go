package sched

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

func newRouter(t testing.TB, m *topology.Mesh2D, cache *routing.PlanCache) *routing.FlatRouter {
	t.Helper()
	st := routing.NewStateWithLabeling(m, labeling.NewMeshBoustrophedon(m))
	r, err := routing.New("dual-path", st)
	if err != nil {
		t.Fatal(err)
	}
	return routing.Flat(r, cache)
}

// TestSubmitValidation pins request validation and canonicalization:
// invalid requests are rejected without queueing, and destinations are
// sorted into canonical order on ingestion.
func TestSubmitValidation(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	s := New(Config{Router: newRouter(t, m, routing.NewPlanCache(0))})
	cases := []struct {
		src   topology.NodeID
		dests []topology.NodeID
	}{
		{-1, []topology.NodeID{1}},
		{16, []topology.NodeID{1}},
		{0, nil},
		{0, []topology.NodeID{16}},
		{0, []topology.NodeID{0}},
		{0, []topology.NodeID{5, 5}},
	}
	for i, c := range cases {
		if err := s.Submit(uint64(i), c.src, c.dests); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("%d requests queued after rejections", s.Pending())
	}
	if err := s.Submit(9, 0, []topology.NodeID{9, 3, 6}); err != nil {
		t.Fatal(err)
	}
	if got := s.queue[0].dests; got[0] != 3 || got[1] != 6 || got[2] != 9 {
		t.Fatalf("dests not canonicalized: %v", got)
	}
}

// TestFIFOWindowAdmitsAll pins the naive baseline: with no budget, every
// pending request is admitted in arrival order.
func TestFIFOWindowAdmitsAll(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	s := New(Config{Router: newRouter(t, m, routing.NewPlanCache(0))})
	for i := 0; i < 10; i++ {
		if err := s.Submit(uint64(100+i), topology.NodeID(i), []topology.NodeID{topology.NodeID(20 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	adm := s.CloseWindow()
	if len(adm) != 10 || s.Pending() != 0 {
		t.Fatalf("admitted %d pending %d, want 10 and 0", len(adm), s.Pending())
	}
	for i, a := range adm {
		if a.ID != uint64(100+i) {
			t.Fatalf("admission %d has id %d, want %d (FIFO order)", i, a.ID, 100+i)
		}
		if a.Flat == nil {
			t.Fatalf("admission %d has no plan", i)
		}
	}
}

// TestBudgetDefersConflicts pins the packer: identical requests pile
// load on the same channels, so a tight budget admits the first and
// defers the rest, carrying them ahead of new arrivals, until MaxDefer
// force-admits survivors.
func TestBudgetDefersConflicts(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	fr := newRouter(t, m, routing.NewPlanCache(0))
	// Budget admits one copy of the 0->63 plan (load 1) but not two: the
	// packer bounds load + dilation, so add the plan's own dilation.
	dil := dilationOf(fr.FlatSet(core.MustMulticastSet(m, 0, []topology.NodeID{63})))
	s := New(Config{
		Router:   newRouter(t, m, routing.NewPlanCache(0)),
		Budget:   dil + 1,
		MaxDefer: 2,
	})
	for i := 0; i < 3; i++ {
		if err := s.Submit(uint64(i), 0, []topology.NodeID{63}); err != nil {
			t.Fatal(err)
		}
	}
	adm := s.CloseWindow()
	if len(adm) != 1 || adm[0].ID != 0 {
		t.Fatalf("window 1 admitted %v, want exactly id 0", adm)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending %d after window 1, want 2", s.Pending())
	}
	// New arrival with a disjoint plan must not overtake the deferred
	// requests in admission order bookkeeping, and fits the budget.
	if err := s.Submit(7, 5, []topology.NodeID{6}); err != nil {
		t.Fatal(err)
	}
	adm = s.CloseWindow()
	if len(adm) != 2 || adm[0].ID != 1 || adm[1].ID != 7 {
		t.Fatalf("window 2 admitted %v, want deferred id 1 then id 7", adm)
	}
	// Request 2 has now been deferred twice: force-admitted.
	adm = s.CloseWindow()
	if len(adm) != 1 || adm[0].ID != 2 {
		t.Fatalf("window 3 admitted %v, want force-admitted id 2", adm)
	}
	st := s.Stats()
	if st.ForceAdmits != 0 {
		// id 2 was first in its window, admitted unconditionally — adjust
		// expectation: force-admit only fires when the window already has
		// admissions.
		t.Fatalf("ForceAdmits = %d, want 0 (window-leading requests admit unconditionally)", st.ForceAdmits)
	}
	if st.Deferred != 3 {
		t.Fatalf("Deferred = %d, want 3 (id 1 once, id 2 twice)", st.Deferred)
	}
	if st.Admitted != 4 || s.Pending() != 0 {
		t.Fatalf("Admitted=%d Pending=%d, want 4 and 0", st.Admitted, s.Pending())
	}
}

// TestDeferralRevertsLoad pins the exact revert of a deferred request's
// load. On the 8x8 mesh's top row, A = 0->1 leads the window; B = 0->2
// (channels 0->1, 1->2) would reach load 2 on 0->1 and is deferred; C =
// 1->2 fits only if B's tentative load on 1->2 was taken back out.
func TestDeferralRevertsLoad(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	s := New(Config{Router: newRouter(t, m, routing.NewPlanCache(0)), Budget: 2})
	for i, r := range [][2]topology.NodeID{{0, 1}, {0, 2}, {1, 2}} {
		if err := s.Submit(uint64(i), r[0], []topology.NodeID{r[1]}); err != nil {
			t.Fatal(err)
		}
	}
	adm := s.CloseWindow()
	if len(adm) != 2 || adm[0].ID != 0 || adm[1].ID != 2 {
		t.Fatalf("window admitted %v, want ids 0 and 2 with id 1 deferred", adm)
	}
}

// TestForceAdmitFires pins MaxDefer: a request that keeps losing to an
// endless stream of fresh conflicting arrivals is force-admitted rather
// than starved.
func TestForceAdmitFires(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	fr := newRouter(t, m, routing.NewPlanCache(0))
	dil := dilationOf(fr.FlatSet(core.MustMulticastSet(m, 0, []topology.NodeID{63})))
	s := New(Config{
		Router:   newRouter(t, m, routing.NewPlanCache(0)),
		Budget:   dil + 1, // one copy per window fits
		MaxDefer: 2,
	})
	// Four identical requests: each window admits its leader; the last
	// request would wait three windows, but MaxDefer=2 force-admits it
	// alongside window 3's leader.
	for i := 0; i < 4; i++ {
		if err := s.Submit(uint64(i), 0, []topology.NodeID{63}); err != nil {
			t.Fatal(err)
		}
	}
	var total int
	for w := 0; w < 3; w++ {
		total += len(s.CloseWindow())
	}
	if total != 4 || s.Pending() != 0 {
		t.Fatalf("admitted %d pending %d after 3 windows, want 4 and 0", total, s.Pending())
	}
	if got := s.Stats().ForceAdmits; got != 1 {
		t.Fatalf("ForceAdmits = %d, want 1", got)
	}
}

// TestDedupSharesPlans pins per-window dedup: duplicate destination sets
// cost one cache lookup and share one plan pointer.
func TestDedupSharesPlans(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	cache := routing.NewPlanCache(0)
	s := New(Config{Router: newRouter(t, m, cache)})
	// Three copies of set A (one with permuted dests), two of set B.
	a := []topology.NodeID{10, 20, 30}
	aPerm := []topology.NodeID{30, 10, 20}
	b := []topology.NodeID{40, 50}
	for i, d := range [][]topology.NodeID{a, b, aPerm, b, a} {
		if err := s.Submit(uint64(i), 0, d); err != nil {
			t.Fatal(err)
		}
	}
	adm := s.CloseWindow()
	if len(adm) != 5 {
		t.Fatalf("admitted %d, want 5", len(adm))
	}
	if s.Stats().Planned != 2 {
		t.Fatalf("Planned = %d lookups, want 2 (distinct sets)", s.Stats().Planned)
	}
	cs := cache.Stats()
	if cs.Misses != 2 || cs.Hits != 0 {
		t.Fatalf("cache stats %+v, want exactly 2 misses", cs)
	}
	if adm[0].Flat != adm[2].Flat || adm[0].Flat != adm[4].Flat {
		t.Fatal("duplicate requests did not share set A's plan")
	}
	if adm[1].Flat != adm[3].Flat || adm[1].Flat == adm[0].Flat {
		t.Fatal("set B plan sharing wrong")
	}
	// Next window with the same sets: all hits.
	for i, d := range [][]topology.NodeID{a, b} {
		if err := s.Submit(uint64(10+i), 0, d); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseWindow()
	cs = cache.Stats()
	if cs.Misses != 2 || cs.Hits != 2 {
		t.Fatalf("warm window cache stats %+v, want 2 misses 2 hits", cs)
	}
}

// TestWorkerCountInvariance pins the determinism protocol: any Workers
// value yields the identical admitted stream, service counters, and
// PlanCache counters.
func TestWorkerCountInvariance(t *testing.T) {
	type snapshot struct {
		ids   []uint64
		stats Stats
		cache routing.CacheStats
	}
	run := func(workers int) snapshot {
		m := topology.NewMesh2D(16, 16)
		cache := routing.NewPlanCache(0)
		s := New(Config{
			Router:  newRouter(t, m, cache),
			Budget:  24,
			Workers: workers,
		})
		rng := stats.NewRand(11)
		var snap snapshot
		id := uint64(0)
		for w := 0; w < 6; w++ {
			for i := 0; i < 40; i++ {
				src := topology.NodeID(rng.Intn(m.Nodes()))
				raw := rng.Sample(m.Nodes(), 1+rng.Intn(6), int(src))
				dests := make([]topology.NodeID, len(raw))
				for j, v := range raw {
					dests[j] = topology.NodeID(v)
				}
				if err := s.Submit(id, src, dests); err != nil {
					t.Fatal(err)
				}
				id++
			}
			for _, a := range s.CloseWindow() {
				snap.ids = append(snap.ids, a.ID)
			}
		}
		snap.stats = s.Stats()
		snap.cache = cache.Stats()
		return snap
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if len(got.ids) != len(want.ids) {
			t.Fatalf("workers=%d admitted %d, want %d", workers, len(got.ids), len(want.ids))
		}
		for i := range want.ids {
			if got.ids[i] != want.ids[i] {
				t.Fatalf("workers=%d admission %d is id %d, want %d", workers, i, got.ids[i], want.ids[i])
			}
		}
		if got.stats != want.stats {
			t.Fatalf("workers=%d stats %+v, want %+v", workers, got.stats, want.stats)
		}
		if got.cache != want.cache {
			t.Fatalf("workers=%d cache %+v, want %+v", workers, got.cache, want.cache)
		}
	}
}

// TestSteadyStateWindowAllocationFree is the scheduling analogue of
// wormsim's TestSteadyStateAllocationFree: once the group pool is warm
// (plans cached, arena and scratch grown), a full submit + close-window
// round allocates nothing — even with a worker pool configured, since
// all-hit windows never reach it.
func TestSteadyStateWindowAllocationFree(t *testing.T) {
	m := topology.NewMesh2D(16, 16)
	cache := routing.NewPlanCache(0)
	s := New(Config{
		Router:   newRouter(t, m, cache),
		Budget:   30, // tight enough to exercise the defer/revert path
		MaxDefer: 1,  // deferrals drain next window: backlog reaches a fixed point
		Workers:  4,
	})
	poolRng := stats.NewRand(5)
	const groups = 32
	srcs := make([]topology.NodeID, groups)
	dests := make([][]topology.NodeID, groups)
	for g := range srcs {
		src := topology.NodeID(poolRng.Intn(m.Nodes()))
		raw := poolRng.Sample(m.Nodes(), 1+poolRng.Intn(6), int(src))
		ds := make([]topology.NodeID, len(raw))
		for i, v := range raw {
			ds[i] = topology.NodeID(v)
		}
		srcs[g], dests[g] = src, ds
	}
	// Every round submits the identical request mix (fresh rng per
	// round), so after warmup the queue, arena, and deferral backlog sit
	// at an exact fixed point and any allocation is a real regression.
	round := func() {
		rng := stats.NewRand(17)
		for i := 0; i < 64; i++ {
			g := rng.Intn(groups)
			if err := s.Submit(uint64(i), srcs[g], dests[g]); err != nil {
				t.Fatal(err)
			}
		}
		s.CloseWindow()
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if s.Stats().Deferred == 0 {
		t.Fatal("warmup produced no deferrals; budget no longer exercises the packer")
	}
	if avg := testing.AllocsPerRun(20, round); avg > 0 {
		t.Errorf("steady-state window round allocates %.1f objects, want 0", avg)
	}
	if misses := cache.Stats().Misses; misses > groups {
		t.Fatalf("pool of %d groups produced %d misses", groups, misses)
	}
}
