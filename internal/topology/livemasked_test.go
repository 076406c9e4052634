package topology

import (
	"slices"
	"testing"

	"multicastnet/internal/stats"
)

// churnEquivalence drives a deterministic fault/repair interleaving over
// t: each step flips a seeded coin between failing a healthy link/node and
// repairing a dead one, and the live view is compared against a
// reference masked graph built from scratch from the same dead sets.
func churnEquivalence(t *testing.T, base Topology, steps int, seed uint64) {
	t.Helper()
	live := NewLiveMasked(base)
	links := enumerateLinksT(base)
	rng := stats.NewRand(seed)
	deadLinks := make(map[Link]bool)
	deadNodes := make(map[NodeID]bool)

	for step := 0; step < steps; step++ {
		var d GraphDelta
		switch rng.Intn(4) {
		case 0: // fail a link
			l := links[rng.Intn(len(links))]
			d.FailLinks = append(d.FailLinks, l)
			deadLinks[l] = true
		case 1: // repair a dead link, if any
			for l := range deadLinks {
				d.RepairLinks = append(d.RepairLinks, l)
				delete(deadLinks, l)
				break
			}
		case 2: // fail a node
			v := NodeID(rng.Intn(base.Nodes()))
			d.FailNodes = append(d.FailNodes, v)
			deadNodes[v] = true
		default: // repair a dead node, if any
			for v := range deadNodes {
				d.RepairNodes = append(d.RepairNodes, v)
				delete(deadNodes, v)
				break
			}
		}
		live.Apply(d)
		ref := newRefMasked(base, deadNodes, deadLinks)

		n := base.Nodes()
		for v := 0; v < n; v++ {
			lv := live.Neighbors(NodeID(v), nil)
			if !slices.Equal(lv, ref.neighbors[v]) {
				t.Fatalf("step %d: node %d neighbors: live %v ref %v", step, v, lv, ref.neighbors[v])
			}
			if live.NodeDead(NodeID(v)) != deadNodes[NodeID(v)] {
				t.Fatalf("step %d: node %d dead state disagrees", step, v)
			}
		}
		// Distances and reachability on a seeded sample of pairs.
		for i := 0; i < 40; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if lu, ru := live.Distance(u, v), ref.dist[u][v]; lu != ru {
				t.Fatalf("step %d: distance(%d,%d): live %d ref %d", step, u, v, lu, ru)
			}
			if live.Reachable(u, v) != (ref.dist[u][v] < n) {
				t.Fatalf("step %d: reachable(%d,%d) disagrees", step, u, v)
			}
			if live.Adjacent(u, v) != slices.Contains(ref.neighbors[u], v) {
				t.Fatalf("step %d: adjacent(%d,%d) disagrees", step, u, v)
			}
			refDead := deadNodes[u] || deadNodes[v] || deadLinks[NormLink(u, v)]
			if live.LinkDead(u, v) != refDead {
				t.Fatalf("step %d: linkdead(%d,%d) disagrees", step, u, v)
			}
		}
		if live.Diameter() != ref.diameter {
			t.Fatalf("step %d: diameter: live %d ref %d", step, live.Diameter(), ref.diameter)
		}
	}
	if live.Epoch() != uint64(steps) {
		t.Fatalf("epoch %d after %d steps", live.Epoch(), steps)
	}
}

// refMasked is the equivalence test's reference masked graph: every base
// neighbor list filtered against the dead sets, then all-pairs distances
// by BFS, with Nodes() for unreachable pairs and from dead nodes.
type refMasked struct {
	neighbors [][]NodeID
	dist      [][]int
	diameter  int
}

func newRefMasked(base Topology, deadNodes map[NodeID]bool, deadLinks map[Link]bool) *refMasked {
	n := base.Nodes()
	r := &refMasked{neighbors: make([][]NodeID, n), dist: make([][]int, n)}
	for v := NodeID(0); int(v) < n; v++ {
		if deadNodes[v] {
			continue
		}
		for _, w := range base.Neighbors(v, nil) {
			if !deadNodes[w] && !deadLinks[NormLink(v, w)] {
				r.neighbors[v] = append(r.neighbors[v], w)
			}
		}
	}
	for s := NodeID(0); int(s) < n; s++ {
		row := make([]int, n)
		for i := range row {
			row[i] = n
		}
		if !deadNodes[s] {
			row[s] = 0
			for queue := []NodeID{s}; len(queue) > 0; queue = queue[1:] {
				for _, w := range r.neighbors[queue[0]] {
					if row[w] == n {
						row[w] = row[queue[0]] + 1
						r.diameter = max(r.diameter, row[w])
						queue = append(queue, w)
					}
				}
			}
		}
		r.dist[s] = row
	}
	return r
}

// enumerateLinksT lists undirected links in canonical order (test-local
// duplicate of fault.EnumerateLinks to avoid an import cycle).
func enumerateLinksT(t Topology) []Link {
	var links []Link
	var buf []NodeID
	for v := 0; v < t.Nodes(); v++ {
		buf = t.Neighbors(NodeID(v), buf[:0])
		for _, w := range buf {
			if NodeID(v) < w {
				links = append(links, Link{U: NodeID(v), V: w})
			}
		}
	}
	return links
}

func TestLiveMaskedEquivalence(t *testing.T) {
	t.Run("mesh", func(t *testing.T) {
		t.Parallel()
		churnEquivalence(t, NewMesh2D(5, 4), 60, 0xC0FFEE)
	})
	t.Run("cube", func(t *testing.T) {
		t.Parallel()
		churnEquivalence(t, NewHypercube(4), 60, 0xBEEF)
	})
}

// TestLiveMaskedNoOpDeltas: failing dead hardware and repairing healthy
// hardware must change nothing, including the changed-node report.
func TestLiveMaskedNoOpDeltas(t *testing.T) {
	base := NewMesh2D(3, 3)
	live := NewLiveMasked(base)
	if ch := live.Apply(GraphDelta{RepairNodes: []NodeID{4}, RepairLinks: []Link{{U: 0, V: 1}}}); len(ch) != 0 {
		t.Fatalf("repairing healthy hardware reported changes: %v", ch)
	}
	if ch := live.Apply(GraphDelta{FailLinks: []Link{{U: 0, V: 1}}}); len(ch) != 2 {
		t.Fatalf("link fault changed %v, want the two endpoints", ch)
	}
	if ch := live.Apply(GraphDelta{FailLinks: []Link{{U: 1, V: 0}}}); len(ch) != 0 {
		t.Fatalf("re-failing a dead link reported changes: %v", ch)
	}
	// Non-edges are ignored.
	if ch := live.Apply(GraphDelta{FailLinks: []Link{{U: 0, V: 8}}}); len(ch) != 0 {
		t.Fatalf("failing a non-edge reported changes: %v", ch)
	}
}

// TestLiveMaskedNodeRepairRestoresLinks: a repaired node regains exactly
// the incident links that are not themselves dead.
func TestLiveMaskedNodeRepairRestoresLinks(t *testing.T) {
	base := NewMesh2D(3, 3)
	live := NewLiveMasked(base)
	center := base.ID(1, 1)
	live.Apply(GraphDelta{FailLinks: []Link{NormLink(center, base.ID(0, 1))}})
	live.Apply(GraphDelta{FailNodes: []NodeID{center}})
	if got := live.Neighbors(center, nil); len(got) != 0 {
		t.Fatalf("dead node has neighbors %v", got)
	}
	live.Apply(GraphDelta{RepairNodes: []NodeID{center}})
	got := live.Neighbors(center, nil)
	if len(got) != 3 {
		t.Fatalf("repaired node neighbors %v, want 3 (one link still dead)", got)
	}
	for _, w := range got {
		if w == base.ID(0, 1) {
			t.Fatalf("separately dead link came back with the node repair")
		}
	}
}

// masked builds the view of base with the given dead hardware from
// scratch: a fresh LiveMasked advanced by one delta.
func masked(base Topology, deadNodes []NodeID, deadLinks []Link) *LiveMasked {
	m := NewLiveMasked(base)
	m.Apply(GraphDelta{FailNodes: deadNodes, FailLinks: deadLinks})
	return m
}

// TestMaskedHealthy checks that an empty mask is transparent: same
// adjacency and distances as the base mesh.
func TestMaskedHealthy(t *testing.T) {
	base := NewMesh2D(4, 3)
	m := masked(base, nil, nil)
	if m.Nodes() != base.Nodes() || m.MaxDegree() != base.MaxDegree() {
		t.Fatalf("masked changed node count or degree")
	}
	if m.Base() != Topology(base) {
		t.Fatalf("Base() lost the wrapped topology")
	}
	for u := NodeID(0); int(u) < base.Nodes(); u++ {
		for v := NodeID(0); int(v) < base.Nodes(); v++ {
			if m.Adjacent(u, v) != base.Adjacent(u, v) {
				t.Fatalf("adjacency differs at (%d,%d)", u, v)
			}
			if m.Distance(u, v) != base.Distance(u, v) {
				t.Fatalf("distance differs at (%d,%d): %d vs %d",
					u, v, m.Distance(u, v), base.Distance(u, v))
			}
			if !m.Reachable(u, v) {
				t.Fatalf("(%d,%d) unreachable in healthy mask", u, v)
			}
		}
	}
	if m.Diameter() != base.Diameter() {
		t.Fatalf("diameter %d, want %d", m.Diameter(), base.Diameter())
	}
}

// TestMaskedDeadLink kills one link of a 1xN path mesh, which must
// partition it.
func TestMaskedDeadLink(t *testing.T) {
	base := NewMesh2D(5, 1) // a path 0-1-2-3-4
	m := masked(base, nil, []Link{NormLink(1, 2)})
	if m.Adjacent(1, 2) || m.Adjacent(2, 1) {
		t.Fatalf("dead link still adjacent")
	}
	if !m.Adjacent(0, 1) || !m.Adjacent(2, 3) {
		t.Fatalf("live links lost")
	}
	if m.Reachable(0, 4) {
		t.Fatalf("severed path still reachable")
	}
	if got := m.Distance(0, 4); got != m.Nodes() {
		t.Fatalf("unreachable distance sentinel: got %d, want %d", got, m.Nodes())
	}
	if got := m.Distance(2, 4); got != 2 {
		t.Fatalf("live-side distance: got %d, want 2", got)
	}
	if !m.LinkDead(2, 1) {
		t.Fatalf("LinkDead not symmetric")
	}
}

// TestMaskedDeadNode kills a cut vertex: its links disappear and routes
// must detour or fail.
func TestMaskedDeadNode(t *testing.T) {
	base := NewMesh2D(3, 3)
	center := base.ID(1, 1)
	m := masked(base, []NodeID{center}, nil)
	if !m.NodeDead(center) {
		t.Fatalf("center not dead")
	}
	if m.Adjacent(center, base.ID(0, 1)) {
		t.Fatalf("dead node still adjacent")
	}
	if got := len(m.Neighbors(center, nil)); got != 0 {
		t.Fatalf("dead node has %d neighbors", got)
	}
	// (0,1) to (2,1) used to be distance 2 through the center; now the
	// detour around it is length 4.
	if got := m.Distance(base.ID(0, 1), base.ID(2, 1)); got != 4 {
		t.Fatalf("detour distance: got %d, want 4", got)
	}
	if m.Reachable(center, 0) || m.Reachable(0, center) {
		t.Fatalf("dead node reachable")
	}
}
