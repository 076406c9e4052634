package routing

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"multicastnet/internal/allocs"
	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// randomSet draws a k-destination multicast set on t.
func randomSet(t topology.Topology, rng *stats.Rand, k int) core.MulticastSet {
	src := topology.NodeID(rng.Intn(t.Nodes()))
	raw := rng.Sample(t.Nodes(), k, int(src))
	dests := make([]topology.NodeID, len(raw))
	for i, v := range raw {
		dests[i] = topology.NodeID(v)
	}
	return core.MustMulticastSet(t, src, dests)
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	want := []string{
		"adaptive-dual-path", "dual-path", "dual-path-double", "fixed-path",
		"multi-path", "multi-path-double", "naive-tree", "tree", "virtual-channel",
	}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestLookupUnknownListsValidNames(t *testing.T) {
	_, err := Lookup("bogus")
	if err == nil {
		t.Fatal("Lookup(bogus) succeeded")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-scheme error %q does not mention %q", err, name)
		}
	}
}

func TestSchemesMatchesNames(t *testing.T) {
	infos := Schemes()
	names := Names()
	if len(infos) != len(names) {
		t.Fatalf("Schemes() has %d entries, Names() %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("Schemes()[%d].Name = %q, want %q", i, info.Name, names[i])
		}
		if info.Description == "" {
			t.Errorf("scheme %q has no description", info.Name)
		}
		if info.Build == nil {
			t.Errorf("scheme %q has no builder", info.Name)
		}
	}
}

func TestStateMatchesCanonicalLabeling(t *testing.T) {
	m := topology.NewMesh2D(6, 5)
	st, err := NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	l := labeling.NewMeshBoustrophedon(m)
	for v := 0; v < m.Nodes(); v++ {
		id := topology.NodeID(v)
		if st.Label(id) != l.Label(id) {
			t.Fatalf("Label(%d) = %d, want %d", v, st.Label(id), l.Label(id))
		}
		if st.At(st.Label(id)) != id {
			t.Fatalf("At(Label(%d)) = %d", v, st.At(st.Label(id)))
		}
	}
	if st.Labeling().N() != m.Nodes() {
		t.Fatalf("Labeling().N() = %d", st.Labeling().N())
	}
}

func TestRouterPlanValidatesSet(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	st, err := NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New("dual-path", st)
	if err != nil {
		t.Fatal(err)
	}
	k := core.MustMulticastSet(m, 0, []topology.NodeID{5, 10, 15})
	plan := r.PlanSet(k)
	if err := plan.Validate(m, k); err != nil {
		t.Fatal(err)
	}
	if plan.Messages() != len(plan.Paths) {
		t.Errorf("Messages() = %d, want %d", plan.Messages(), len(plan.Paths))
	}
}

func TestEverySchemePlansValidRoutes(t *testing.T) {
	cases := []struct {
		topo    topology.Topology
		schemes []string
	}{
		{topology.NewMesh2D(8, 8), []string{
			"dual-path", "dual-path-double", "multi-path", "multi-path-double",
			"fixed-path", "tree", "naive-tree", "adaptive-dual-path", "virtual-channel"}},
		{topology.NewHypercube(5), []string{
			"dual-path", "multi-path", "fixed-path", "virtual-channel"}},
		{topology.NewMesh3D(3, 3, 3), []string{"dual-path", "fixed-path"}},
	}
	for _, tc := range cases {
		st, err := NewState(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(7)
		for _, name := range tc.schemes {
			r, err := New(name, st)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, tc.topo.Name(), err)
			}
			if r.Scheme() != name {
				t.Errorf("Scheme() = %q, want %q", r.Scheme(), name)
			}
			if r.State() != st {
				t.Errorf("%s: State() is not the construction state", name)
			}
			for rep := 0; rep < 20; rep++ {
				k := randomSet(tc.topo, rng, 1+rng.Intn(10))
				if err := r.PlanSet(k).Validate(tc.topo, k); err != nil {
					t.Fatalf("%s on %s: %v", name, tc.topo.Name(), err)
				}
			}
		}
	}
}

func TestSchemeTopologyMismatch(t *testing.T) {
	st, err := NewState(topology.NewMesh3D(3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"multi-path", "tree", "naive-tree"} {
		if _, err := New(name, st); err == nil {
			t.Errorf("%s accepted a 3D mesh", name)
		}
	}
}

func TestVirtualChannelOptions(t *testing.T) {
	st, err := NewState(topology.NewMesh2D(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithOptions("virtual-channel", st, Options{VirtualChannels: -1}); err == nil {
		t.Error("virtual-channel accepted v = -1")
	}
	def, err := New("virtual-channel", st)
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewWithOptions("virtual-channel", st, Options{VirtualChannels: 2})
	if err != nil {
		t.Fatal(err)
	}
	four, err := NewWithOptions("virtual-channel", st, Options{VirtualChannels: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The default routes as v = 2, and v = 4 routes differently.
	rng := stats.NewRand(5)
	differs := false
	for i := 0; i < 20; i++ {
		k := randomSet(st.Topology(), rng, 1+rng.Intn(6))
		if !reflect.DeepEqual(def.PlanSet(k), two.PlanSet(k)) {
			t.Fatalf("default plan for %v differs from v = 2", k)
		}
		differs = differs || !reflect.DeepEqual(four.PlanSet(k), two.PlanSet(k))
	}
	if !differs {
		t.Error("v = 4 planned every set as v = 2 does")
	}
}

// pathRouters builds every registry path scheme (no tree classes) on
// the 8x8 mesh and on the 6-cube.
func pathRouters(t *testing.T) []Router {
	t.Helper()
	var out []Router
	for _, topo := range []topology.Topology{topology.NewMesh2D(8, 8), topology.NewHypercube(6)} {
		st, err := NewState(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range Schemes() {
			if info.TreeClasses > 0 {
				continue
			}
			r, err := New(info.Name, st)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
	}
	return out
}

// TestPathPlanAllocations pins what a warm path-scheme plan allocates:
// the scheme writes its star into a workspace the test holds, and
// Star.Clone copies it out in two allocations, the Paths list and one
// array holding every row and every Dests. The count is exact over a
// thousand plans (allocs.Exact), so a row, partition, neighbor buffer or
// sort scratch allocated per plan, a buffer per leg or per hop, or an
// interface conversion whose type-assert cache allocates even now and
// then, fails it in every build mode. PlanSet is that call on a pooled
// workspace and must return the same plan; its count is not pinned,
// since a collection empties the pool.
func TestPathPlanAllocations(t *testing.T) {
	for _, r := range pathRouters(t) {
		pp := r.(pathPlanner)
		topo := r.State().Topology()
		ws := new(dfr.Workspace)
		sets := randomSets(topo, stats.NewRand(11), 60)
		var s dfr.Star
		allocs.Exact(t, r.Scheme()+" plan on "+topo.Name(), 2, func(i int) {
			s, _ = pp.planPaths(ws, sets[i%len(sets)])
			s = s.Clone()
		})
		for _, k := range sets {
			s, _ = pp.planPaths(ws, k)
			if p := r.PlanSet(k); !reflect.DeepEqual(p.Paths, s.Paths) {
				t.Fatalf("%s on %s: PlanSet plans %v, want %v", r.Scheme(), topo.Name(), p.Paths, s.Paths)
			}
		}
	}
}

// TestFlatComputeAllocations pins what a warm flat plan of a path
// scheme allocates: the star is written into a workspace and flattened
// from there by a Flattener, both held by the test, so the FlatPlan and
// its six arrays are all it allocates, exactly, in every build mode,
// with no route-form row, path list or flattening scratch per plan.
// FlatCompute is that call on a pooled workspace and Flattener and must
// return the same plan.
func TestFlatComputeAllocations(t *testing.T) {
	for _, r := range pathRouters(t) {
		pp := r.(pathPlanner)
		fr := Flat(r, NewPlanCache(0))
		topo := r.State().Topology()
		ws, fl := new(dfr.Workspace), NewFlattener(topo)
		sets := randomSets(topo, stats.NewRand(13), 60)
		var f *FlatPlan
		allocs.Exact(t, r.Scheme()+" flat plan on "+topo.Name(), 7, func(i int) {
			s, _ := pp.planPaths(ws, sets[i%len(sets)])
			f = fl.Flatten(new(FlatPlan), Plan{Paths: s.Paths})
		})
		for _, k := range sets {
			s, _ := pp.planPaths(ws, k)
			f = fl.Flatten(new(FlatPlan), Plan{Paths: s.Paths})
			if g := fr.FlatCompute(k); !reflect.DeepEqual(g, f) {
				t.Fatalf("%s on %s: FlatCompute plans %+v, want %+v", r.Scheme(), topo.Name(), g, f)
			}
		}
	}
}

// randomSets draws n multicast sets of 1 to N-1 destinations over topo.
func randomSets(topo topology.Topology, rng *stats.Rand, n int) []core.MulticastSet {
	sets := make([]core.MulticastSet, n)
	for i := range sets {
		sets[i] = randomSet(topo, rng, 1+rng.Intn(topo.Nodes()-1))
	}
	return sets
}
