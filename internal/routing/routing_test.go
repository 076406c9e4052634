package routing

import (
	"sort"
	"strings"
	"testing"

	"multicastnet/internal/core"
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
		got := st.Neighbors(id)
		want := m.Neighbors(id, nil)
		if len(got) != len(want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
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
	if _, err := r.Plan(0, []topology.NodeID{0}); err == nil {
		t.Error("Plan accepted the source as a destination")
	}
	if _, err := r.Plan(0, []topology.NodeID{99}); err == nil {
		t.Error("Plan accepted an out-of-range destination")
	}
	plan, err := r.Plan(0, []topology.NodeID{5, 10, 15})
	if err != nil {
		t.Fatal(err)
	}
	k := core.MustMulticastSet(m, 0, []topology.NodeID{5, 10, 15})
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
	if def.ID() != two.ID() {
		t.Errorf("default ID %q differs from v=2 ID %q", def.ID(), two.ID())
	}
	four, err := NewWithOptions("virtual-channel", st, Options{VirtualChannels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.ID() == two.ID() {
		t.Error("v=4 shares the v=2 router identity")
	}
}
