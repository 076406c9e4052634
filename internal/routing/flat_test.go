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

// TestFlattenLayout flattens a hand-built plan on a 4x8 mesh and checks
// every CSR invariant: offsets bound the packed arrays, level/channel/
// dest rows reproduce the source routes in order — a path one channel
// per level, paths before trees — and degenerate routes are dropped
// from the arrays but kept in TotalDests.
func TestFlattenLayout(t *testing.T) {
	m := topology.NewMesh2D(4, 8)
	p := Plan{
		Paths: []dfr.PathRoute{
			{Nodes: []topology.NodeID{0, 1, 2, 3}, Class: 1, Dests: []topology.NodeID{3, 2}},
			{Nodes: []topology.NodeID{0}, Dests: []topology.NodeID{5}}, // degenerate
			{Nodes: []topology.NodeID{0, 4}, Classes: []int{2}, Dests: []topology.NodeID{4}},
		},
		Trees: []dfr.TreeRoute{
			{
				Root: 5,
				Edges: []dfr.Channel{
					{From: 5, To: 1}, {From: 5, To: 6, Class: 1}, {From: 1, To: 0},
				},
				Dests: []topology.NodeID{6, 0},
			},
			{Root: 9, Dests: []topology.NodeID{7}}, // degenerate
		},
	}
	f := Flatten(m, p)
	checkFlattenLayout(t, f)

	// A warm flattener refilling a plan that held a larger one first
	// yields exactly the one-shot arrays, and allocates nothing.
	larger := p
	larger.Paths = append(append([]dfr.PathRoute(nil), p.Paths...),
		dfr.PathRoute{Nodes: []topology.NodeID{8, 9, 10, 11, 15}, Dests: []topology.NodeID{15, 10}})
	larger.Trees = append(append([]dfr.TreeRoute(nil), p.Trees...), p.Trees[0], dfr.TreeRoute{
		Root:  20,
		Edges: []dfr.Channel{{From: 20, To: 21}, {From: 21, To: 22}, {From: 22, To: 23}, {From: 20, To: 24}},
		Dests: []topology.NodeID{23, 24},
	})
	fl := NewFlattener(m)
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
	if f.Routes() != 3 {
		t.Fatalf("Routes=%d, want 3 (two paths, one tree)", f.Routes())
	}
	if f.TotalDests != 7 {
		t.Fatalf("TotalDests=%d, want 7 (degenerate dests included)", f.TotalDests)
	}
	// Route 0 is path 0 (three levels), route 1 path 2 (one level),
	// route 2 the tree (two levels); each route's level bounds end where
	// the next route's begin.
	for _, row := range []struct {
		name      string
		got, want []int32
	}{
		{"RouteOff", f.RouteOff, []int32{0, 3, 4, 6}},
		{"LevelOff", f.LevelOff, []int32{0, 1, 2, 3, 4, 6, 7}},
		// Channel ids on the 4x8 mesh (N = 32, D = 4, ports x-1, x+1,
		// y-1, y+1): (class·N + from)·D + port. The path hops 0-1-2-3
		// in class 1, then 0-4 in class 2; the tree's level 1 holds
		// (5,1) and (5,6)#1 in edge order, its level 2 holds (1,0).
		{"Chan", f.Chan, []int32{(32+0)*4 + 1, (32+1)*4 + 1, (32+2)*4 + 1, (64+0)*4 + 3,
			5*4 + 2, (32+5)*4 + 1, 1*4 + 0}},
		{"DestOff", f.DestOff, []int32{0, 2, 3, 5}},
		// Deliveries in listed order: path 0's dest 3 at position 3 and
		// dest 2 at position 2, path 2's dest 4 at 1, the tree's dest 6
		// at depth 1 and dest 0 at depth 2.
		{"Dest", f.Dest, []int32{3, 2, 4, 6, 0}},
		{"DestLevel", f.DestLevel, []int32{3, 2, 1, 1, 2}},
	} {
		if !reflect.DeepEqual(row.got, row.want) {
			t.Fatalf("%s=%v, want %v", row.name, row.got, row.want)
		}
	}
	if f.Numbering().Topology().Name() != "4x8 mesh" {
		t.Fatalf("plan numbered in %s, want the 4x8 mesh", f.Numbering().Topology().Name())
	}
}

// TestFlattenRejectsMalformedTrees: the flattener refuses, with a named
// panic, a tree edge that leaves a node the tree has not reached yet —
// which would otherwise flatten into the wrong lock-step level — a tree
// that reaches a node twice, a tree that misses a destination, and a
// hop that is not a channel. A refused plan leaves the flattener usable.
// The trees run on a 3-node ring, where every pair of nodes is linked.
func TestFlattenRejectsMalformedTrees(t *testing.T) {
	ring := topology.Ring(3)
	fl := NewFlattener(ring)
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
		{[]dfr.Channel{{From: 0, To: 1}, {From: 1, To: 3}}, []topology.NodeID{3},
			"routing: hop [1,3] is not a channel of 3-ary 1-cube"},
		{[]dfr.Channel{{From: 0, To: 0}}, []topology.NodeID{1},
			"routing: hop [0,0] is not a channel of 3-ary 1-cube"},
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
	if fl.Flatten(&f, good); !reflect.DeepEqual(f, *Flatten(ring, good)) {
		t.Fatalf("flattener after refused plans: %+v, want %+v", f, *Flatten(ring, good))
	}
}

// TestFlattenPathLevels: a path destination's level is its first
// position on the path, also when the path walks through it again, and
// a destination the path never reaches past its source (a skipped
// node, the source itself, a node off the topology) is refused with a
// named panic.
func TestFlattenPathLevels(t *testing.T) {
	m := topology.NewMesh2D(4, 8)
	walk := Plan{Paths: []dfr.PathRoute{{Nodes: []topology.NodeID{0, 1, 2, 1, 5}, Dests: []topology.NodeID{1, 5, 2}}}}
	if f := Flatten(m, walk); !reflect.DeepEqual(f.DestLevel, []int32{1, 4, 2}) {
		t.Fatalf("walk 0-1-2-1-5 delivers 1, 5, 2 at levels %v, want [1 4 2]", f.DestLevel)
	}
	fl := NewFlattener(m)
	var f FlatPlan
	for _, d := range []topology.NodeID{2, 0, 99} {
		func() {
			want := fmt.Sprintf("routing: path does not visit destination %d", d)
			defer func() {
				if msg, _ := recover().(string); msg != want {
					t.Errorf("path 0-1 to %d: panic %q, want %q", d, msg, want)
				}
			}()
			fl.Flatten(&f, Plan{Paths: []dfr.PathRoute{{Nodes: []topology.NodeID{0, 1}, Dests: []topology.NodeID{d}}}})
		}()
	}
	if fl.Flatten(&f, walk); !reflect.DeepEqual(f, *Flatten(m, walk)) {
		t.Fatalf("flattener after refused paths: %+v, want %+v", f, *Flatten(m, walk))
	}
}

// TestFlattenerEpochWrap: once the tree epoch wraps, neither the stamps
// an earlier tree left nor the zero stamps of untouched nodes may count
// as reached. Nodes 1 and 5 both neighbor node 6 on a 5x2 mesh.
func TestFlattenerEpochWrap(t *testing.T) {
	for _, from := range []topology.NodeID{1, 5} { // stamped by the first tree; never stamped
		fl := NewFlattener(topology.NewMesh2D(5, 2))
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

// TestCacheKeysSeparateRepresentations: a cache holds its owner's one
// representation, so one router's route-form and CSR plans live in
// separate caches, and a route-form cache handed to Flat panics rather
// than serve a Plan where a *FlatPlan is wanted. The two forms agree and
// both warm.
func TestCacheKeysSeparateRepresentations(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	st := NewStateWithLabeling(m, labeling.NewMeshBoustrophedon(m))
	r, err := New("dual-path", st)
	if err != nil {
		t.Fatal(err)
	}
	routes, flats := NewPlanCache(0), NewPlanCache(0)
	cr, fr := Cached(r, routes), Flat(r, flats)
	k, err := core.NewMulticastSet(m, 0, []topology.NodeID{5, 10, 15})
	if err != nil {
		t.Fatal(err)
	}

	plain := cr.PlanSet(k)
	flat := fr.FlatSet(k)
	if flat == nil || flat.Routes() == 0 {
		t.Fatal("flat plan empty")
	}
	if got := Flatten(m, plain); got.TotalDests != flat.TotalDests || got.Routes() != flat.Routes() {
		t.Fatalf("representations disagree: %+v vs %+v", got, flat)
	}
	key := planKey(k)
	if e, ok := routes.plans[key]; !ok || e.flat != nil || routes.Len() != 1 {
		t.Fatalf("route-form cache: entry %+v (found %v), %d plans; want one route-form entry", e, ok, routes.Len())
	}
	if e, ok := flats.plans[key]; !ok || e.flat != flat || flats.Len() != 1 {
		t.Fatalf("flat cache: entry %+v (found %v), %d plans; want one entry holding the FlatSet plan", e, ok, flats.Len())
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the route-form cache was handed to Flat without a panic")
			}
		}()
		Flat(r, routes)
	}()

	// Both representations must now hit.
	rm, fm := routes.Stats().Misses, flats.Stats().Misses
	cr.PlanSet(k)
	fr.FlatSet(k)
	if rm1, fm1 := routes.Stats().Misses, flats.Stats().Misses; rm1 != rm || fm1 != fm {
		t.Fatalf("warm representations missed: route misses %d -> %d, flat misses %d -> %d", rm, rm1, fm, fm1)
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
