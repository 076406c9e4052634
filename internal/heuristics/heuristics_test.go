package heuristics

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// TestFig57SortedMPExample reproduces Fig. 5.7: on the 4x4 mesh with
// source 9 and K = {0, 1, 6, 12}, the sorted MP algorithm yields the
// multicast path (9, 13, 12, 8, 4, 0, 1, 2, 6).
func TestFig57SortedMPExample(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	c, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		t.Fatal(err)
	}
	k := core.MustMulticastSet(m, 9, []topology.NodeID{0, 1, 6, 12})
	sorted := SortedMPPrepare(c, k)
	wantSorted := []topology.NodeID{12, 0, 1, 6}
	for i, v := range wantSorted {
		if sorted[i] != v {
			t.Fatalf("sorted dests %v, want %v", sorted, wantSorted)
		}
	}
	p := SortedMP(m, c, k)
	want := []topology.NodeID{9, 13, 12, 8, 4, 0, 1, 2, 6}
	if len(p.Nodes) != len(want) {
		t.Fatalf("path %v, want %v", p.Nodes, want)
	}
	for i := range want {
		if p.Nodes[i] != want[i] {
			t.Fatalf("path %v, want %v", p.Nodes, want)
		}
	}
	if err := p.Validate(m, k, true); err != nil {
		t.Error(err)
	}
}

// TestFig58SortedMPCubeExample reproduces the 4-cube example of Fig. 5.8
// (source 0011, Table 5.4 keys): the sorted destination list is
// (0111, 0100, 1100, 1111, 1010) and the route follows the keys.
func TestFig58SortedMPCubeExample(t *testing.T) {
	h := topology.NewHypercube(4)
	c, err := labeling.CubeHamiltonCycle(h)
	if err != nil {
		t.Fatal(err)
	}
	k := core.MustMulticastSet(h, 0b0011,
		[]topology.NodeID{0b0100, 0b0111, 0b1100, 0b1010, 0b1111})
	sorted := SortedMPPrepare(c, k)
	wantSorted := []topology.NodeID{0b0111, 0b0100, 0b1100, 0b1111, 0b1010}
	for i, v := range wantSorted {
		if sorted[i] != v {
			t.Fatalf("sorted dests %v, want %v", sorted, wantSorted)
		}
	}
	p := SortedMP(h, c, k)
	want := []topology.NodeID{0b0011, 0b0111, 0b0101, 0b0100, 0b1100, 0b1101, 0b1111, 0b1110, 0b1010}
	if len(p.Nodes) != len(want) {
		t.Fatalf("path length %d, want %d (%v)", len(p.Nodes), len(want), p.Nodes)
	}
	for i := range want {
		if p.Nodes[i] != want[i] {
			t.Fatalf("path %v, want %v", p.Nodes, want)
		}
	}
	if err := p.Validate(h, k, true); err != nil {
		t.Error(err)
	}
}

// TestSortedMPProperty checks Theorem 5.1 on random multicast sets: the
// sorted MP route is a simple path covering every destination, with
// strictly increasing keys.
func TestSortedMPProperty(t *testing.T) {
	rng := stats.NewRand(7)
	topos := []struct {
		t topology.Topology
		c func() (*labeling.HamiltonCycle, error)
	}{
		{topology.NewMesh2D(8, 8), func() (*labeling.HamiltonCycle, error) {
			return labeling.MeshHamiltonCycle(topology.NewMesh2D(8, 8))
		}},
		{topology.NewHypercube(6), func() (*labeling.HamiltonCycle, error) {
			return labeling.CubeHamiltonCycle(topology.NewHypercube(6))
		}},
	}
	for _, tc := range topos {
		c, err := tc.c()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			src := topology.NodeID(rng.Intn(tc.t.Nodes()))
			kcount := 1 + rng.Intn(12)
			raw := rng.Sample(tc.t.Nodes(), kcount, int(src))
			dests := make([]topology.NodeID, kcount)
			for i, v := range raw {
				dests[i] = topology.NodeID(v)
			}
			k := core.MustMulticastSet(tc.t, src, dests)
			p := SortedMP(tc.t, c, k)
			if err := p.Validate(tc.t, k, true); err != nil {
				t.Fatalf("%s trial %d: %v", tc.t.Name(), trial, err)
			}
			for i := 1; i < len(p.Nodes); i++ {
				if c.SortKey(src, p.Nodes[i]) <= c.SortKey(src, p.Nodes[i-1]) {
					t.Fatalf("%s: keys not increasing along %v", tc.t.Name(), p.Nodes)
				}
			}
			// The path can never exceed the Hamilton cycle length.
			if p.Traffic() >= tc.t.Nodes() {
				t.Fatalf("%s: path longer than Hamilton cycle", tc.t.Name())
			}
		}
	}
}

// TestSortedMCProperty checks the MC variant: the route closes back at the
// source and is a valid multicast cycle.
func TestSortedMCProperty(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	c, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(13)
	for trial := 0; trial < 200; trial++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		kcount := 1 + rng.Intn(10)
		raw := rng.Sample(m.Nodes(), kcount, int(src))
		dests := make([]topology.NodeID, kcount)
		for i, v := range raw {
			dests[i] = topology.NodeID(v)
		}
		k := core.MustMulticastSet(m, src, dests)
		cyc := SortedMC(m, c, k)
		if err := cyc.Validate(m, k, true); err != nil {
			t.Fatalf("trial %d: %v (cycle %v)", trial, err, cyc.Nodes)
		}
		// The cycle contains the MP and costs at least one more link.
		p := SortedMP(m, c, k)
		if cyc.Traffic() <= p.Traffic() {
			t.Fatalf("cycle traffic %d not greater than path traffic %d", cyc.Traffic(), p.Traffic())
		}
	}
}

// greedySTSplit is the replicate-node computation (Steps 3-5 of Fig. 5.4)
// at node u with remaining destinations dests (u excluded): it builds the
// local greedy Steiner tree and returns, for each son r of u, the sublist
// (r, destinations in r's subtree).
func greedySTSplit(t RegionTopology, u topology.NodeID, dests []topology.NodeID) [][]topology.NodeID {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	tp, s := greedyEntry(t)
	ws.ensure(tp)
	ws.buildGreedyTree(s, u, dests)
	var out [][]topology.NodeID
	for sl := ws.trHead[u]; sl >= 0; sl = ws.trNext[sl] {
		r := ws.far(sl)
		ws.markSubtree(r, u)
		list := []topology.NodeID{r}
		// Keep the original sorted order for the carried destinations.
		for _, d := range dests {
			if d != r && ws.tmp.has(int32(d)) {
				list = append(list, d)
			}
		}
		out = append(out, list)
	}
	return out
}

// TestFig59GreedySTMeshExample reproduces the 8x8 mesh example of
// Section 5.4 / Fig. 5.9: source [2,7], five destinations, a 14-link
// Steiner tree whose first sublist is rooted at replicate node [2,5].
func TestFig59GreedySTMeshExample(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	k := core.MustMulticastSet(m, id(2, 7),
		[]topology.NodeID{id(0, 5), id(2, 3), id(4, 1), id(6, 3), id(7, 4)})

	// The source's replicate computation must identify [2,5] as the
	// single son carrying all five destinations.
	subs := greedySTSplit(m, k.Source, GreedySTPrepare(m, k))
	if len(subs) != 1 {
		t.Fatalf("source has %d sons, want 1 (%v)", len(subs), subs)
	}
	if subs[0][0] != id(2, 5) {
		t.Fatalf("son is %d, want node [2,5]=%d", subs[0][0], id(2, 5))
	}
	if len(subs[0]) != 6 {
		t.Fatalf("sublist %v should carry all 5 destinations", subs[0])
	}

	res := GreedyST(m, k)
	if err := res.Validate(m, k); err != nil {
		t.Fatal(err)
	}
	if !res.IsTreePattern() {
		t.Error("greedy ST pattern is not a tree")
	}
	if res.Links != 14 {
		t.Errorf("traffic %d, want 14 (Fig. 5.9 pattern)", res.Links)
	}
}

// TestFig510GreedySTCubeExample runs the 6-cube example of Section 5.4 /
// Fig. 5.10 and checks the documented structure: the source is itself a
// replicate node whose local tree hangs everything under 000101.
func TestFig510GreedySTCubeExample(t *testing.T) {
	h := topology.NewHypercube(6)
	src := topology.NodeID(0b000110)
	dests := []topology.NodeID{0b010101, 0b000001, 0b001101, 0b101001, 0b110001}
	k := core.MustMulticastSet(h, src, dests)
	res := GreedyST(h, k)
	if err := res.Validate(h, k); err != nil {
		t.Fatal(err)
	}
	if !res.IsTreePattern() {
		t.Error("greedy ST pattern is not a tree")
	}
	// The tree must be no worse than multi-unicast and cover 5 dests at
	// distances 3,3,3,5,5.
	if res.Links >= MultiUnicastTraffic(h, k) {
		t.Errorf("ST traffic %d not better than multi-unicast %d",
			res.Links, MultiUnicastTraffic(h, k))
	}
}

// TestGreedySTProperty checks the greedy ST algorithm on random sets:
// valid delivery, tree pattern, and traffic never worse than
// multi-unicast.
func TestGreedySTProperty(t *testing.T) {
	rng := stats.NewRand(21)
	topos := []RegionTopology{topology.NewMesh2D(8, 8), topology.NewHypercube(6)}
	for _, topo := range topos {
		for trial := 0; trial < 200; trial++ {
			src := topology.NodeID(rng.Intn(topo.Nodes()))
			kcount := 1 + rng.Intn(15)
			raw := rng.Sample(topo.Nodes(), kcount, int(src))
			dests := make([]topology.NodeID, kcount)
			for i, v := range raw {
				dests[i] = topology.NodeID(v)
			}
			k := core.MustMulticastSet(topo, src, dests)
			res := GreedyST(topo, k)
			if err := res.Validate(topo, k); err != nil {
				t.Fatalf("%s trial %d: %v", topo.Name(), trial, err)
			}
			if res.Links > MultiUnicastTraffic(topo, k) {
				t.Errorf("%s trial %d: ST traffic %d worse than multi-unicast %d",
					topo.Name(), trial, res.Links, MultiUnicastTraffic(topo, k))
			}
		}
	}
}

// TestGreedySTCarriedMatchesDistributed compares the two implementations
// of Section 5.2 — recompute-at-replicate-nodes vs complete-tree-carried
// — on random workloads: both deliver every destination, and their
// traffic agrees closely (the paper states the generated traffic is the
// same; ties in the greedy insertion can differ, so we allow a small
// per-instance divergence and require near-identical totals).
func TestGreedySTCarriedMatchesDistributed(t *testing.T) {
	rng := stats.NewRand(71)
	topos := []RegionTopology{topology.NewMesh2D(8, 8), topology.NewHypercube(6)}
	for _, topo := range topos {
		var distTotal, carryTotal int
		for trial := 0; trial < 150; trial++ {
			src := topology.NodeID(rng.Intn(topo.Nodes()))
			kcount := 1 + rng.Intn(12)
			raw := rng.Sample(topo.Nodes(), kcount, int(src))
			dests := make([]topology.NodeID, kcount)
			for i, v := range raw {
				dests[i] = topology.NodeID(v)
			}
			k := core.MustMulticastSet(topo, src, dests)
			carried := GreedySTCarried(topo, k)
			if err := carried.Validate(topo, k); err != nil {
				t.Fatalf("%s trial %d: %v", topo.Name(), trial, err)
			}
			distTotal += GreedyST(topo, k).Links
			carryTotal += carried.Links
		}
		diff := distTotal - carryTotal
		if diff < 0 {
			diff = -diff
		}
		if diff*20 > distTotal {
			t.Errorf("%s: implementations diverge: distributed %d vs carried %d",
				topo.Name(), distTotal, carryTotal)
		}
	}
}

// TestFig511XFirstExample reproduces the 6x6 mesh example of Section 5.4:
// X-first routing from (3,2) to the ten listed destinations generates
// exactly 24 units of traffic (Fig. 5.11).
func TestFig511XFirstExample(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	k := core.MustMulticastSet(m, id(3, 2), []topology.NodeID{
		id(2, 0), id(3, 0), id(4, 0), id(1, 1), id(5, 1),
		id(0, 2), id(1, 3), id(2, 5), id(3, 5), id(5, 5),
	})
	res := XFirstMT(m, k)
	if err := res.Validate(m, k); err != nil {
		t.Fatal(err)
	}
	// The dissertation text says 24, but an exact recount of the X-first
	// pattern for this example yields 23 channels (+Y stem 3, -Y stem 2,
	// +X branch 8, -X branch 10); we pin the recounted value and note the
	// one-unit discrepancy in EXPERIMENTS.md.
	if res.Links != 23 {
		t.Errorf("X-first traffic %d, want 23", res.Links)
	}
	// MT model: every destination at graph distance.
	for _, d := range k.Dests {
		if res.Delivered[d] != m.Distance(k.Source, d) {
			t.Errorf("dest %d delivered at depth %d, distance %d",
				d, res.Delivered[d], m.Distance(k.Source, d))
		}
	}
}

// TestFig512DividedGreedyExample runs the divided greedy algorithm on the
// same example (Fig. 5.12): still a shortest-path multicast tree, with
// less traffic than X-first.
func TestFig512DividedGreedyExample(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	k := core.MustMulticastSet(m, id(3, 2), []topology.NodeID{
		id(2, 0), id(3, 0), id(4, 0), id(1, 1), id(5, 1),
		id(0, 2), id(1, 3), id(2, 5), id(3, 5), id(5, 5),
	})
	res := DividedGreedyMT(m, k)
	if err := res.Validate(m, k); err != nil {
		t.Fatal(err)
	}
	for _, d := range k.Dests {
		if res.Delivered[d] != m.Distance(k.Source, d) {
			t.Errorf("dest %d delivered at depth %d, distance %d",
				d, res.Delivered[d], m.Distance(k.Source, d))
		}
	}
	xf := XFirstMT(m, k)
	if res.Links >= xf.Links {
		t.Errorf("divided greedy traffic %d not better than X-first %d", res.Links, xf.Links)
	}
}

// TestMTShortestProperty checks Theorems 5.3/5.4 on random sets: both MT
// algorithms deliver every destination along a shortest path.
func TestMTShortestProperty(t *testing.T) {
	m := topology.NewMesh2D(16, 16)
	rng := stats.NewRand(31)
	var xfTotal, dgTotal int
	for trial := 0; trial < 300; trial++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		kcount := 1 + rng.Intn(20)
		raw := rng.Sample(m.Nodes(), kcount, int(src))
		dests := make([]topology.NodeID, kcount)
		for i, v := range raw {
			dests[i] = topology.NodeID(v)
		}
		k := core.MustMulticastSet(m, src, dests)
		for _, algo := range []func(*topology.Mesh2D, core.MulticastSet) *STResult{XFirstMT, DividedGreedyMT} {
			res := algo(m, k)
			if err := res.Validate(m, k); err != nil {
				t.Fatal(err)
			}
			for _, d := range k.Dests {
				if res.Delivered[d] != m.Distance(src, d) {
					t.Fatalf("trial %d: destination %d not on shortest path", trial, d)
				}
			}
		}
		xfTotal += XFirstMT(m, k).Links
		dgTotal += DividedGreedyMT(m, k).Links
	}
	// Fig. 7.5: divided greedy generates less traffic on average.
	if dgTotal >= xfTotal {
		t.Errorf("divided greedy average traffic %d not below X-first %d", dgTotal, xfTotal)
	}
}

// TestLENProperty checks the LEN baseline: shortest-path delivery, tree
// pattern, traffic at most multi-unicast.
func TestLENProperty(t *testing.T) {
	h := topology.NewHypercube(6)
	rng := stats.NewRand(41)
	for trial := 0; trial < 200; trial++ {
		src := topology.NodeID(rng.Intn(h.Nodes()))
		kcount := 1 + rng.Intn(15)
		raw := rng.Sample(h.Nodes(), kcount, int(src))
		dests := make([]topology.NodeID, kcount)
		for i, v := range raw {
			dests[i] = topology.NodeID(v)
		}
		k := core.MustMulticastSet(h, src, dests)
		res := LEN(h, k)
		if err := res.Validate(h, k); err != nil {
			t.Fatal(err)
		}
		if !res.IsTreePattern() {
			t.Error("LEN pattern is not a tree")
		}
		for _, d := range k.Dests {
			if res.Delivered[d] != h.Distance(src, d) {
				t.Fatalf("LEN destination %d not on shortest path", d)
			}
		}
		if res.Links > MultiUnicastTraffic(h, k) {
			t.Errorf("LEN traffic %d worse than multi-unicast %d", res.Links, MultiUnicastTraffic(h, k))
		}
	}
}

// TestKMBSteiner checks the KMB baseline on meshes: the result is a tree
// spanning the terminals.
func TestKMBSteiner(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	g := TopologyGraph(m)
	rng := stats.NewRand(51)
	for trial := 0; trial < 100; trial++ {
		raw := rng.Sample(m.Nodes(), 2+rng.Intn(8))
		edges := KMB(g, raw)
		// Build adjacency and check connectivity over terminals.
		adj := make(map[int][]int)
		for _, e := range edges {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		visited := map[int]bool{raw[0]: true}
		stack := []int{raw[0]}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !visited[v] {
					visited[v] = true
					stack = append(stack, v)
				}
			}
		}
		for _, term := range raw {
			if !visited[term] {
				t.Fatalf("trial %d: terminal %d not connected by KMB tree", trial, term)
			}
		}
		// Tree: edges = nodes - 1.
		if len(edges) != len(visited)-1 {
			t.Fatalf("trial %d: %d edges over %d nodes is not a tree", trial, len(edges), len(visited))
		}
	}
}

func TestKMBTrivialCases(t *testing.T) {
	g := TopologyGraph(topology.NewMesh2D(3, 3))
	if KMB(g, nil) != nil {
		t.Error("empty terminal set should give nil")
	}
	if e := KMB(g, []int{4}); len(e) != 0 {
		t.Error("single terminal should give empty tree")
	}
}

func TestBaselineTraffic(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	k := core.MustMulticastSet(m, 0, []topology.NodeID{3, 12, 15})
	if got := MultiUnicastTraffic(m, k); got != 3+3+6 {
		t.Errorf("multi-unicast traffic %d, want 12", got)
	}
	if got := BroadcastTraffic(m); got != 15 {
		t.Errorf("broadcast traffic %d, want 15", got)
	}
}

// TestGreedySTBeatsLENOnAverage pins the Fig. 7.4 comparison result: over
// random workloads on a hypercube, greedy ST generates less traffic than
// LEN on average.
func TestGreedySTBeatsLENOnAverage(t *testing.T) {
	h := topology.NewHypercube(8)
	rng := stats.NewRand(61)
	var st, lenT int
	for trial := 0; trial < 200; trial++ {
		src := topology.NodeID(rng.Intn(h.Nodes()))
		raw := rng.Sample(h.Nodes(), 20, int(src))
		dests := make([]topology.NodeID, len(raw))
		for i, v := range raw {
			dests[i] = topology.NodeID(v)
		}
		k := core.MustMulticastSet(h, src, dests)
		st += GreedyST(h, k).Links
		lenT += LEN(h, k).Links
	}
	if st >= lenT {
		t.Errorf("greedy ST average traffic %d not below LEN %d", st, lenT)
	}
}

// TestXYZFirstMT3D checks the 3D extension of the X-first tree: valid
// delivery at shortest distance on random workloads, and traffic no worse
// than multi-unicast.
func TestXYZFirstMT3D(t *testing.T) {
	m := topology.NewMesh3D(4, 4, 4)
	rng := stats.NewRand(73)
	for trial := 0; trial < 200; trial++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		kcount := 1 + rng.Intn(12)
		raw := rng.Sample(m.Nodes(), kcount, int(src))
		dests := make([]topology.NodeID, kcount)
		for i, v := range raw {
			dests[i] = topology.NodeID(v)
		}
		k := core.MustMulticastSet(m, src, dests)
		res := XYZFirstMT(m, k)
		if err := res.Validate(m, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, d := range k.Dests {
			if res.Delivered[d] != m.Distance(src, d) {
				t.Fatalf("trial %d: destination %d not on shortest path", trial, d)
			}
		}
		if res.Links > MultiUnicastTraffic(m, k) {
			t.Errorf("trial %d: 3D tree traffic %d worse than multi-unicast %d",
				trial, res.Links, MultiUnicastTraffic(m, k))
		}
	}
}

// TestGreedySTVersusKMB checks the Section 5.2 comparison claim: by
// considering the nodes on shortest paths between Steiner nodes (not just
// the Steiner nodes themselves), the greedy ST algorithm is no worse than
// the KMB heuristic [55] on average over random mesh workloads.
func TestGreedySTVersusKMB(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	g := TopologyGraph(m)
	rng := stats.NewRand(83)
	var greedyTotal, kmbTotal int
	for trial := 0; trial < 150; trial++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		kcount := 2 + rng.Intn(10)
		raw := rng.Sample(m.Nodes(), kcount, int(src))
		dests := make([]topology.NodeID, kcount)
		terminals := []int{int(src)}
		for i, v := range raw {
			dests[i] = topology.NodeID(v)
			terminals = append(terminals, v)
		}
		k := core.MustMulticastSet(m, src, dests)
		greedyTotal += GreedyST(m, k).Links
		kmbTotal += len(KMB(g, terminals))
	}
	if greedyTotal > kmbTotal {
		t.Errorf("greedy ST average traffic %d exceeds KMB %d", greedyTotal, kmbTotal)
	}
}
