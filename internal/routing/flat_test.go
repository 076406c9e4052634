package routing

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// TestFlattenLayout flattens a hand-built plan and checks every CSR
// invariant: offsets bound the packed arrays, node/class/level/dest rows
// reproduce the source routes in order, and degenerate routes are dropped
// from the arrays but kept in TotalDests.
func TestFlattenLayout(t *testing.T) {
	p := Plan{
		Paths: []dfr.PathRoute{
			{Nodes: []topology.NodeID{0, 1, 2, 3}, Class: 1, Dests: []topology.NodeID{3, 2}},
			{Nodes: []topology.NodeID{0}, Dests: []topology.NodeID{5}}, // degenerate
			{Nodes: []topology.NodeID{0, 4}, Classes: []int{2}, Dests: []topology.NodeID{4}},
		},
		Trees: []dfr.TreeRoute{
			{
				Root: 4,
				Edges: []dfr.Channel{
					{From: 4, To: 3}, {From: 4, To: 5, Class: 1}, {From: 3, To: 0},
				},
				Dests: []topology.NodeID{5, 0},
			},
			{Root: 9, Dests: []topology.NodeID{7}}, // degenerate
		},
	}
	f := Flatten(p)
	checkFlattenLayout(t, f)

	// A warm flattener refilling a plan that held a larger one first
	// yields exactly the one-shot arrays, and allocates nothing.
	larger := p
	larger.Paths = append(append([]dfr.PathRoute(nil), p.Paths...),
		dfr.PathRoute{Nodes: []topology.NodeID{9, 10, 11, 12, 13}, Dests: []topology.NodeID{13, 11}})
	larger.Trees = append(append([]dfr.TreeRoute(nil), p.Trees...), p.Trees[0], dfr.TreeRoute{
		Root:  20,
		Edges: []dfr.Channel{{From: 20, To: 21}, {From: 21, To: 22}, {From: 22, To: 23}, {From: 20, To: 24}},
		Dests: []topology.NodeID{23, 24},
	})
	var fl Flattener
	var refilled FlatPlan
	fl.Flatten(&refilled, larger)
	if got := fl.Flatten(&refilled, p); got != &refilled || !reflect.DeepEqual(refilled, *f) {
		t.Fatalf("warm refill differs from Flatten:\nrefill: %+v\nFlatten: %+v", refilled, *f)
	}
	if avg := testing.AllocsPerRun(20, func() { fl.Flatten(&refilled, larger) }); avg > 0 {
		t.Errorf("warm flattener allocates %.1f objects per plan, want 0", avg)
	}
}

// checkFlattenLayout checks TestFlattenLayout's plan, flattened.
func checkFlattenLayout(t *testing.T, f *FlatPlan) {
	t.Helper()
	if f.Paths() != 2 || f.Trees() != 1 {
		t.Fatalf("Paths=%d Trees=%d, want 2 and 1", f.Paths(), f.Trees())
	}
	if f.TotalDests != 7 {
		t.Fatalf("TotalDests=%d, want 7 (degenerate dests included)", f.TotalDests)
	}
	wantNodes := []int32{0, 1, 2, 3, 0, 4}
	for i, v := range wantNodes {
		if f.PathNodes[i] != v {
			t.Fatalf("PathNodes=%v, want %v", f.PathNodes, wantNodes)
		}
	}
	wantClass := []int32{1, 1, 1, 2}
	for i, v := range wantClass {
		if f.PathClass[i] != v {
			t.Fatalf("PathClass=%v, want %v", f.PathClass, wantClass)
		}
	}
	// Path 0 deliveries: dest 3 at position 3, dest 2 at position 2 — in
	// listed order.
	if f.PathDest[0] != 3 || f.PathDestPos[0] != 3 || f.PathDest[1] != 2 || f.PathDestPos[1] != 2 {
		t.Fatalf("path 0 deliveries wrong: dest=%v pos=%v", f.PathDest, f.PathDestPos)
	}
	// Tree 0: two levels — level 0 has channels (4,3) and (4,5)#1 in edge
	// order, level 1 has (3,0).
	llo, lhi := f.TreeOff[0], f.TreeOff[1]
	if lhi-llo != 2 {
		t.Fatalf("tree levels = %d, want 2", lhi-llo)
	}
	l0lo, l0hi := f.TreeLevelOff[llo], f.TreeLevelOff[llo+1]
	if l0hi-l0lo != 2 || f.TreeFrom[l0lo] != 4 || f.TreeTo[l0lo] != 3 ||
		f.TreeFrom[l0lo+1] != 4 || f.TreeTo[l0lo+1] != 5 || f.TreeClass[l0lo+1] != 1 {
		t.Fatalf("tree level 0 wrong: from=%v to=%v class=%v", f.TreeFrom, f.TreeTo, f.TreeClass)
	}
	l1lo, l1hi := f.TreeLevelOff[llo+1], f.TreeLevelOff[llo+2]
	if l1hi-l1lo != 1 || f.TreeFrom[l1lo] != 3 || f.TreeTo[l1lo] != 0 {
		t.Fatalf("tree level 1 wrong: from=%v to=%v", f.TreeFrom, f.TreeTo)
	}
	if f.TreeDest[0] != 5 || f.TreeDestDepth[0] != 1 || f.TreeDest[1] != 0 || f.TreeDestDepth[1] != 2 {
		t.Fatalf("tree deliveries wrong: dest=%v depth=%v", f.TreeDest, f.TreeDestDepth)
	}
}

// TestFlattenRejectsMalformedTrees: the flattener refuses, with a named
// panic, a tree edge that leaves a node the tree has not reached yet —
// which would otherwise flatten into the wrong lock-step level — a tree
// that reaches a node twice, and a tree that misses a destination. A
// refused plan leaves the flattener usable.
func TestFlattenRejectsMalformedTrees(t *testing.T) {
	var fl Flattener
	var f FlatPlan
	for _, tc := range []struct {
		edges []dfr.Channel
		dests []topology.NodeID
		want  string
	}{
		{[]dfr.Channel{{From: 1, To: 2}, {From: 0, To: 1}}, []topology.NodeID{2},
			"routing: tree edge [1,2] leaves node 1 before the tree reaches it"},
		{[]dfr.Channel{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 2}}, []topology.NodeID{2},
			"routing: tree edge [0,2] reaches node 2 twice"},
		{[]dfr.Channel{{From: 0, To: 1}, {From: 1, To: 0}}, []topology.NodeID{1},
			"routing: tree edge [1,0] reaches node 0 twice"},
		{[]dfr.Channel{{From: 0, To: 1}}, []topology.NodeID{1, 3},
			"routing: tree does not reach destination 3"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != tc.want {
					t.Errorf("edges %v: panic %q, want %q", tc.edges, msg, tc.want)
				}
			}()
			fl.Flatten(&f, Plan{Trees: []dfr.TreeRoute{{Root: 0, Edges: tc.edges, Dests: tc.dests}}})
		}()
	}
	good := Plan{Trees: []dfr.TreeRoute{{Root: 0, Edges: []dfr.Channel{{From: 0, To: 1}, {From: 1, To: 2}},
		Dests: []topology.NodeID{2}}}}
	if fl.Flatten(&f, good); !reflect.DeepEqual(f, *Flatten(good)) {
		t.Fatalf("flattener after refused plans: %+v, want %+v", f, *Flatten(good))
	}
}

// TestFlattenerEpochWrap: once the tree epoch wraps, neither the stamps
// an earlier tree left nor the zero stamps of untouched nodes may count
// as reached.
func TestFlattenerEpochWrap(t *testing.T) {
	for _, from := range []topology.NodeID{1, 5} { // stamped by the first tree; never stamped
		var fl Flattener
		var f FlatPlan
		fl.Flatten(&f, Plan{Trees: []dfr.TreeRoute{{Root: 0, Edges: []dfr.Channel{{From: 0, To: 1}},
			Dests: []topology.NodeID{1}}}})
		fl.epoch = math.MaxUint32
		want := fmt.Sprintf("routing: tree edge [%d,6] leaves node %d before the tree reaches it", from, from)
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != want {
					t.Errorf("after the wrap: panic %q, want %q", msg, want)
				}
			}()
			fl.Flatten(&f, Plan{Trees: []dfr.TreeRoute{{Root: 0, Edges: []dfr.Channel{{From: from, To: 6}},
				Dests: []topology.NodeID{6}}}})
		}()
	}
}

// TestCacheKeysSeparateRepresentations is the regression test for the
// representation-tag bugfix: one shared cache, one router identity, one
// multicast set — priming the route form must not serve the CSR request
// (or vice versa), because the shapes are incompatible for their
// consumers.
func TestCacheKeysSeparateRepresentations(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	st := NewStateWithLabeling(m, labeling.NewMeshBoustrophedon(m))
	r, err := New("dual-path", st)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(0)
	k, err := core.NewMulticastSet(m, 0, []topology.NodeID{5, 10, 15})
	if err != nil {
		t.Fatal(err)
	}

	// Prime the cache with the route form.
	plain := Cached(r, cache).PlanSet(k)
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d after route-form prime, want 1", cache.Len())
	}

	// The CSR request must miss the route-form entry and create its own.
	fr := Flat(r, cache)
	flat := fr.FlatSet(k)
	if flat == nil || flat.Paths() == 0 {
		t.Fatal("flat plan empty")
	}
	if cache.Len() != 2 {
		t.Fatalf("cache len = %d, want 2 distinct representation entries", cache.Len())
	}
	if got := Flatten(plain); got.TotalDests != flat.TotalDests || got.Paths() != flat.Paths() {
		t.Fatalf("representations disagree: %+v vs %+v", got, flat)
	}

	// Both representations must now hit.
	m0 := cache.Stats().Misses
	Cached(r, cache).PlanSet(k)
	fr.FlatSet(k)
	if m1 := cache.Stats().Misses; m1 != m0 {
		t.Fatalf("warm representations missed: misses %d -> %d", m0, m1)
	}
}

// TestFlatProbeBuf pins the buffered lookup's contract: it shares cache
// entries with FlatSet (same key bytes, same plan pointer on a hit),
// falls back cleanly on unsorted destinations, reports a miss that
// FlatCompute + FlatInstallBuf complete for FlatSet, and a warm hit with
// a reused buffer allocates nothing.
func TestFlatProbeBuf(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	st := NewStateWithLabeling(m, labeling.NewMeshBoustrophedon(m))
	r, err := New("dual-path", st)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(0)
	fr := Flat(r, cache)

	sorted := core.MustMulticastSet(m, 3, []topology.NodeID{9, 18, 27, 40})
	via := fr.FlatSet(sorted)
	got, buf, ok := fr.FlatProbeBuf(sorted, nil)
	if !ok || got != via {
		t.Fatal("FlatProbeBuf did not hit the FlatSet entry for sorted dests")
	}

	// Unsorted destinations fall back to the canonicalizing path — and
	// still share the same entry.
	unsorted := core.MustMulticastSet(m, 3, []topology.NodeID{40, 9, 27, 18})
	if got, _, ok := fr.FlatProbeBuf(unsorted, buf); !ok || got != via {
		t.Fatal("unsorted fallback did not share the canonical entry")
	}

	// A miss is reported, not planned; installing the computed plan
	// populates the cache for FlatSet.
	fresh := core.MustMulticastSet(m, 5, []topology.NodeID{2, 13, 44})
	if got, _, ok := fr.FlatProbeBuf(fresh, buf); ok || got != nil {
		t.Fatal("FlatProbeBuf reported a hit for an uncached set")
	}
	first := fr.FlatCompute(fresh)
	buf = fr.FlatInstallBuf(fresh, first, buf)
	if fr.FlatSet(fresh) != first {
		t.Fatal("FlatSet did not hit the FlatInstallBuf-populated entry")
	}

	// Warm hits with a reused buffer are allocation-free.
	if avg := testing.AllocsPerRun(100, func() {
		var p *FlatPlan
		p, buf, _ = fr.FlatProbeBuf(sorted, buf)
		if p != via {
			t.Fatal("hit returned a different plan")
		}
	}); avg > 0 {
		t.Errorf("warm FlatProbeBuf hit allocates %.1f objects, want 0", avg)
	}
}
