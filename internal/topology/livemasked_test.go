package topology

import (
	"slices"
	"sync"
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
		if live.Healthy() != (len(deadNodes) == 0 && len(deadLinks) == 0) {
			t.Fatalf("step %d: Healthy() = %v with %d dead nodes, %d dead links",
				step, live.Healthy(), len(deadNodes), len(deadLinks))
		}

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

// FuzzLiveMaskedDistances drives a small mesh or cube through random
// fail, repair and no-op deltas and, after every Apply, checks the view
// against the reference of TestLiveMaskedEquivalence: every adjacency
// row, then Distance and Reachable toward each destination whose row was
// memoized before the delta, then toward one destination computed fresh.
// It is the oracle for keeping distance rows across deltas: a kept row
// that the delta made stale fails here.
//
// The input is a shape byte and (op, arg) byte pairs. An op fails or
// repairs a link or a node in the pending delta, queries one distance
// (memoizing its destination's row), or applies the pending delta, which
// may be empty or hold nothing but no-ops.
func FuzzLiveMaskedDistances(f *testing.F) {
	f.Add(uint8(0), []byte{4, 1, 0, 0, 5, 0, 4, 1, 5, 1, 1, 0, 5, 1})
	f.Add(uint8(5), []byte{4, 9, 2, 3, 5, 0, 4, 17, 5, 2, 3, 3, 0, 5, 5, 6, 4, 40, 0, 5, 5, 7})
	f.Add(uint8(18), []byte{4, 8, 4, 30, 0, 2, 0, 9, 5, 4, 4, 8, 2, 4, 1, 2, 5, 0, 3, 4, 5, 8})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		var base Topology
		if shape&1 == 0 {
			base = NewMesh2D(2+int(shape>>1)%4, 1+int(shape>>3)%4)
		} else {
			base = NewHypercube(1 + int(shape>>1)%4)
		}
		n := base.Nodes()
		links := enumerateLinksT(base)
		live := NewLiveMasked(base)
		deadNodes := make(map[NodeID]bool)
		deadLinks := make(map[Link]bool)
		ref := newRefMasked(base, deadNodes, deadLinks)
		checkPair := func(u, v NodeID) {
			t.Helper()
			if got, want := live.Distance(u, v), ref.dist[u][v]; got != want {
				t.Fatalf("epoch %d: Distance(%d, %d) = %d, want %d", live.Epoch(), u, v, got, want)
			}
			if got, want := live.Reachable(u, v), ref.dist[u][v] < n; got != want {
				t.Fatalf("epoch %d: Reachable(%d, %d) = %v, want %v", live.Epoch(), u, v, got, want)
			}
		}
		var d GraphDelta
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 6 {
			case 0:
				d.FailLinks = append(d.FailLinks, links[arg%len(links)])
			case 1:
				d.RepairLinks = append(d.RepairLinks, links[arg%len(links)])
			case 2:
				d.FailNodes = append(d.FailNodes, NodeID(arg%n))
			case 3:
				d.RepairNodes = append(d.RepairNodes, NodeID(arg%n))
			case 4:
				checkPair(NodeID(arg%n), NodeID(arg/n%n))
			default:
				var memoized []NodeID
				for v := range live.rows {
					memoized = append(memoized, v)
				}
				live.Apply(d)
				// Fail first, repair second: hardware both failed and
				// repaired in one delta ends up alive.
				for _, v := range d.FailNodes {
					deadNodes[v] = true
				}
				for _, v := range d.RepairNodes {
					delete(deadNodes, v)
				}
				for _, l := range d.FailLinks {
					deadLinks[l] = true
				}
				for _, l := range d.RepairLinks {
					delete(deadLinks, l)
				}
				d = GraphDelta{}
				ref = newRefMasked(base, deadNodes, deadLinks)
				for v := NodeID(0); int(v) < n; v++ {
					if got := live.Neighbors(v, nil); !slices.Equal(got, ref.neighbors[v]) {
						t.Fatalf("epoch %d: node %d neighbors %v, want %v", live.Epoch(), v, got, ref.neighbors[v])
					}
				}
				for _, v := range append(memoized, NodeID(arg%n)) {
					for u := NodeID(0); int(u) < n; u++ {
						checkPair(u, v)
					}
				}
			}
		}
	})
}

// TestLiveMaskedNoOpDeltas: failing dead hardware, repairing healthy
// hardware, failing a non-edge and an empty delta change nothing — the
// adjacency and every memoized distance row stay — while the epoch still
// advances. A delta that does change a dead set drops the rows.
func TestLiveMaskedNoOpDeltas(t *testing.T) {
	base := NewMesh2D(3, 3)
	live := NewLiveMasked(base)
	const dest = 8
	row := &live.row(dest)[0]
	keeps := func(what string, d GraphDelta) {
		t.Helper()
		epoch := live.Epoch()
		var before [][]NodeID
		for v := NodeID(0); v < 9; v++ {
			before = append(before, live.Neighbors(v, nil))
		}
		live.Apply(d)
		if live.Epoch() != epoch+1 {
			t.Fatalf("%s: epoch %d, want %d", what, live.Epoch(), epoch+1)
		}
		for v := NodeID(0); v < 9; v++ {
			if got := live.Neighbors(v, nil); !slices.Equal(got, before[v]) {
				t.Fatalf("%s changed node %d's neighbors: %v, was %v", what, v, got, before[v])
			}
		}
		if r, ok := live.rows[dest]; !ok || &r[0] != row {
			t.Fatalf("%s dropped the memoized distance row", what)
		}
	}
	keeps("repairing healthy hardware", GraphDelta{RepairNodes: []NodeID{4}, RepairLinks: []Link{{U: 0, V: 1}}})
	keeps("an empty delta", GraphDelta{})

	live.Apply(GraphDelta{FailLinks: []Link{{U: 0, V: 1}}})
	if slices.Contains(live.Neighbors(0, nil), 1) || slices.Contains(live.Neighbors(1, nil), 0) {
		t.Fatal("link fault kept the link")
	}
	if _, ok := live.rows[dest]; ok {
		t.Fatal("link fault kept a memoized distance row")
	}
	row = &live.row(dest)[0]
	keeps("re-failing a dead link", GraphDelta{FailLinks: []Link{{U: 1, V: 0}}})
	keeps("failing a non-edge", GraphDelta{FailLinks: []Link{{U: 0, V: 8}}})
	if got := live.Distance(1, dest); got != 3 {
		t.Fatalf("Distance(1, %d) = %d, want 3", dest, got)
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
	if !m.Healthy() {
		t.Fatalf("empty mask reports dead hardware")
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

// TestMaskedUnreachableSentinelOnLargeCubes kills one node of 14-, 15-
// and 16-cubes: the unreachable sentinel Nodes() must survive the row
// storage from 32,768 nodes on, or a router would plan toward dead nodes.
func TestMaskedUnreachableSentinelOnLargeCubes(t *testing.T) {
	for _, dim := range []int{14, 15, 16} {
		base := NewHypercube(dim)
		m := masked(base, []NodeID{5}, nil)
		if got := m.Distance(0, 5); got != m.Nodes() {
			t.Errorf("%d-cube: Distance(0, dead 5) = %d, want %d", dim, got, m.Nodes())
		}
		if m.Reachable(0, 5) {
			t.Errorf("%d-cube: dead node 5 reachable from 0", dim)
		}
		if got := m.Distance(0, 6); got != 2 {
			t.Errorf("%d-cube: Distance(0, 6) = %d, want 2", dim, got)
		}
	}
}

// TestDistanceMemoizesOneRowPerDestination: routing asks Distance(p, v)
// from every candidate hop p toward one destination v, so all of those
// queries must share v's BFS row instead of computing one row per p.
func TestDistanceMemoizesOneRowPerDestination(t *testing.T) {
	base := NewMesh2D(8, 8)
	deadNodes := map[NodeID]bool{base.ID(3, 3): true}
	deadLinks := map[Link]bool{
		NormLink(base.ID(1, 1), base.ID(1, 2)): true,
		NormLink(base.ID(5, 4), base.ID(6, 4)): true,
	}
	m := masked(base, []NodeID{base.ID(3, 3)},
		[]Link{NormLink(base.ID(1, 1), base.ID(1, 2)), NormLink(base.ID(5, 4), base.ID(6, 4))})
	ref := newRefMasked(base, deadNodes, deadLinks)
	v := base.ID(6, 5)
	for p := NodeID(0); int(p) < m.Nodes(); p++ {
		if got, want := m.Distance(p, v), ref.dist[p][v]; got != want {
			t.Fatalf("Distance(%d, %d) = %d, want %d", p, v, got, want)
		}
	}
	if got := len(m.rows); got != 1 {
		t.Fatalf("distances toward one destination memoized %d rows, want 1", got)
	}
}

// TestFreshRowAllocatesOnlyTheRow: a distance row computed after the
// memo is emptied costs one allocation, the row itself, because every
// BFS reuses the view's queue.
func TestFreshRowAllocatesOnlyTheRow(t *testing.T) {
	base := NewMesh2D(16, 16)
	m := masked(base, []NodeID{base.ID(5, 5), base.ID(9, 2)},
		[]Link{NormLink(base.ID(1, 1), base.ID(1, 2)), NormLink(base.ID(7, 8), base.ID(8, 8))})
	v := base.ID(12, 11)
	allocs := testing.AllocsPerRun(100, func() {
		clear(m.rows)
		if m.Distance(0, v) != 23 {
			t.Fatal("Distance(0, v) changed")
		}
	})
	if allocs > 1 {
		t.Fatalf("a fresh distance row costs %v allocations, want at most 1", allocs)
	}
}

// TestLiveMaskedConcurrentRows: goroutines computing distance rows at
// once share the view's BFS queue under its mutex, and every row must
// still match the reference.
func TestLiveMaskedConcurrentRows(t *testing.T) {
	base := NewMesh2D(8, 8)
	deadNodes := map[NodeID]bool{base.ID(3, 3): true}
	deadLinks := map[Link]bool{
		NormLink(base.ID(1, 1), base.ID(1, 2)): true,
		NormLink(base.ID(5, 4), base.ID(6, 4)): true,
	}
	m := masked(base, []NodeID{base.ID(3, 3)},
		[]Link{NormLink(base.ID(1, 1), base.ID(1, 2)), NormLink(base.ID(5, 4), base.ID(6, 4))})
	ref := newRefMasked(base, deadNodes, deadLinks)
	n := m.Nodes()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				v := NodeID((7*i + 16*g) % n) // a different order per goroutine
				for u := NodeID(0); int(u) < n; u++ {
					if got, want := m.Distance(u, v), ref.dist[u][v]; got != want {
						t.Errorf("goroutine %d: Distance(%d, %d) = %d, want %d", g, u, v, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
