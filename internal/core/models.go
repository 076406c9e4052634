// Package core defines the multicast communication models of Chapter 3 —
// multicast path (MP), multicast cycle (MC), Steiner tree (ST), multicast
// tree (MT), and multicast star (MS) — together with their validity
// predicates (Definitions 3.1–3.5), the traffic and distance metrics of
// the performance study, and the partial-order-preserving routing function
// R of Sections 6.2.2/6.3.
package core

import (
	"fmt"
	"sort"

	"multicastnet/internal/topology"
)

// MulticastSet is the set K = {u0, u1, ..., uk} of Chapter 3: a source
// node and k >= 1 destination nodes.
type MulticastSet struct {
	Source topology.NodeID
	Dests  []topology.NodeID
}

// NewMulticastSet validates and returns a multicast set over t. The source
// must not appear among the destinations and destinations must be
// distinct.
func NewMulticastSet(t topology.Topology, source topology.NodeID, dests []topology.NodeID) (MulticastSet, error) {
	if source < 0 || int(source) >= t.Nodes() {
		return MulticastSet{}, fmt.Errorf("core: source %d out of range", source)
	}
	if len(dests) == 0 {
		return MulticastSet{}, fmt.Errorf("core: multicast set needs at least one destination")
	}
	seen := make(map[topology.NodeID]bool, len(dests)+1)
	seen[source] = true
	for _, d := range dests {
		if d < 0 || int(d) >= t.Nodes() {
			return MulticastSet{}, fmt.Errorf("core: destination %d out of range", d)
		}
		if d == source {
			return MulticastSet{}, fmt.Errorf("core: source %d listed as destination", d)
		}
		if seen[d] {
			return MulticastSet{}, fmt.Errorf("core: duplicate destination %d", d)
		}
		seen[d] = true
	}
	out := MulticastSet{Source: source, Dests: make([]topology.NodeID, len(dests))}
	copy(out.Dests, dests)
	return out, nil
}

// MustMulticastSet is NewMulticastSet that panics on error; for tests and
// examples with known-good inputs.
func MustMulticastSet(t topology.Topology, source topology.NodeID, dests []topology.NodeID) MulticastSet {
	k, err := NewMulticastSet(t, source, dests)
	if err != nil {
		panic(err)
	}
	return k
}

// K returns the number of destinations.
func (s MulticastSet) K() int { return len(s.Dests) }

// DestSet returns the destinations as a membership map.
func (s MulticastSet) DestSet() map[topology.NodeID]bool {
	m := make(map[topology.NodeID]bool, len(s.Dests))
	for _, d := range s.Dests {
		m[d] = true
	}
	return m
}

// Path is a multicast path (Definition 3.1): a node visiting sequence
// (v_1, ..., v_n) with v_1 = u0 along edges of the host graph, all nodes
// distinct, covering every destination.
type Path struct {
	Nodes []topology.NodeID
}

// Traffic returns the number of channels the path uses.
func (p Path) Traffic() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// DistanceTo returns the number of hops from the source to the first
// occurrence of v along the path, or -1 when v is not on the path. Under
// path-based wormhole multicast this is the channel count traversed
// before v's router sees the header.
func (p Path) DistanceTo(v topology.NodeID) int {
	for i, n := range p.Nodes {
		if n == v {
			return i
		}
	}
	return -1
}

// Validate checks Definition 3.1 for the multicast set k, requiring
// distinct nodes (a path, not a walk) when strict is true. Heuristic
// path routing over a fixed Hamilton cycle may legitimately revisit nodes
// (the route is a walk in G); model validation for the optimization
// problems uses strict mode.
func (p Path) Validate(t topology.Topology, k MulticastSet, strict bool) error {
	if len(p.Nodes) == 0 || p.Nodes[0] != k.Source {
		return fmt.Errorf("core: path must start at source %d", k.Source)
	}
	seen := make(map[topology.NodeID]bool, len(p.Nodes))
	for i, v := range p.Nodes {
		if v < 0 || int(v) >= t.Nodes() {
			return fmt.Errorf("core: path node %d out of range", v)
		}
		if i > 0 && !t.Adjacent(p.Nodes[i-1], v) {
			return fmt.Errorf("core: path nodes %d,%d not adjacent", p.Nodes[i-1], v)
		}
		if strict && seen[v] {
			return fmt.Errorf("core: path revisits node %d", v)
		}
		seen[v] = true
	}
	for _, d := range k.Dests {
		if !seen[d] {
			return fmt.Errorf("core: path misses destination %d", d)
		}
	}
	return nil
}

// Cycle is a multicast cycle (Definition 3.2): a multicast path that
// additionally returns to its first node, so the source receives its own
// message as a collective acknowledgement.
type Cycle struct {
	Nodes []topology.NodeID // v_1 ... v_n; the closing edge (v_n, v_1) is implicit
}

// Traffic returns the number of channels the cycle uses, including the
// closing edge.
func (c Cycle) Traffic() int {
	if len(c.Nodes) < 2 {
		return 0
	}
	return len(c.Nodes)
}

// Validate checks Definition 3.2 (strict mode as for Path).
func (c Cycle) Validate(t topology.Topology, k MulticastSet, strict bool) error {
	if err := (Path{Nodes: c.Nodes}).Validate(t, k, strict); err != nil {
		return err
	}
	if len(c.Nodes) < 2 {
		return fmt.Errorf("core: cycle too short")
	}
	if !t.Adjacent(c.Nodes[len(c.Nodes)-1], c.Nodes[0]) {
		return fmt.Errorf("core: cycle does not close: %d,%d not adjacent",
			c.Nodes[len(c.Nodes)-1], c.Nodes[0])
	}
	return nil
}

// Tree is a rooted multicast tree: the ST and MT models, and also the
// delivery structure produced by tree-like wormhole routing. Children
// lists are kept sorted for deterministic traversal.
type Tree struct {
	Root     topology.NodeID
	children map[topology.NodeID][]topology.NodeID
	parent   map[topology.NodeID]topology.NodeID
}

// NewTree returns a tree containing only the root.
func NewTree(root topology.NodeID) *Tree {
	return &Tree{
		Root:     root,
		children: make(map[topology.NodeID][]topology.NodeID),
		parent:   make(map[topology.NodeID]topology.NodeID),
	}
}

// AddEdge attaches child under parent. The parent must already be in the
// tree and the child must not be.
func (tr *Tree) AddEdge(parent, child topology.NodeID) {
	if !tr.Contains(parent) {
		panic(fmt.Sprintf("core: tree edge from absent parent %d", parent))
	}
	if tr.Contains(child) {
		panic(fmt.Sprintf("core: tree already contains %d", child))
	}
	tr.children[parent] = append(tr.children[parent], child)
	sort.Slice(tr.children[parent], func(i, j int) bool {
		return tr.children[parent][i] < tr.children[parent][j]
	})
	tr.parent[child] = parent
}

// Contains reports whether v is a node of the tree.
func (tr *Tree) Contains(v topology.NodeID) bool {
	if v == tr.Root {
		return true
	}
	_, ok := tr.parent[v]
	return ok
}

// Parent returns the parent of v and whether v has one (the root and
// absent nodes do not).
func (tr *Tree) Parent(v topology.NodeID) (topology.NodeID, bool) {
	p, ok := tr.parent[v]
	return p, ok
}

// Nodes returns all tree nodes in sorted order.
func (tr *Tree) Nodes() []topology.NodeID {
	out := []topology.NodeID{tr.Root}
	for v := range tr.parent {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of nodes.
func (tr *Tree) Size() int { return len(tr.parent) + 1 }

// Traffic returns the number of channels (edges) the tree uses.
func (tr *Tree) Traffic() int { return len(tr.parent) }

// Depth returns the hop distance from the root to v, or -1 when v is not
// in the tree.
func (tr *Tree) Depth(v topology.NodeID) int {
	if !tr.Contains(v) {
		return -1
	}
	d := 0
	for v != tr.Root {
		v = tr.parent[v]
		d++
	}
	return d
}

// MaxDepth returns the maximum root-to-node distance.
func (tr *Tree) MaxDepth() int {
	maxd := 0
	for v := range tr.parent {
		if d := tr.Depth(v); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Walk visits every node in preorder (parent before children).
func (tr *Tree) Walk(fn func(v topology.NodeID)) {
	var rec func(v topology.NodeID)
	rec = func(v topology.NodeID) {
		fn(v)
		for _, c := range tr.children[v] {
			rec(c)
		}
	}
	rec(tr.Root)
}

// Validate checks that the tree is rooted at the multicast source, all
// tree edges are host-graph edges, and every destination is covered
// (Definition 3.3, the ST model).
func (tr *Tree) Validate(t topology.Topology, k MulticastSet) error {
	if tr.Root != k.Source {
		return fmt.Errorf("core: tree rooted at %d, source is %d", tr.Root, k.Source)
	}
	for child, parent := range tr.parent {
		if !t.Adjacent(parent, child) {
			return fmt.Errorf("core: tree edge (%d,%d) is not a host edge", parent, child)
		}
	}
	for _, d := range k.Dests {
		if !tr.Contains(d) {
			return fmt.Errorf("core: tree misses destination %d", d)
		}
	}
	return nil
}

// ValidateMT additionally checks condition (b) of Definition 3.4: the
// tree distance from the source to each destination equals the host-graph
// distance (the MT model minimizes time first).
func (tr *Tree) ValidateMT(t topology.Topology, k MulticastSet) error {
	if err := tr.Validate(t, k); err != nil {
		return err
	}
	for _, d := range k.Dests {
		if got, want := tr.Depth(d), t.Distance(k.Source, d); got != want {
			return fmt.Errorf("core: destination %d at tree depth %d, graph distance %d", d, got, want)
		}
	}
	return nil
}

// Star is a multicast star (Definition 3.5): a collection of multicast
// paths, each starting at the source, whose destination subsets D_i
// partition the destination set.
type Star struct {
	Paths []Path
}

// Traffic returns the total channel count over all paths.
func (s Star) Traffic() int {
	total := 0
	for _, p := range s.Paths {
		total += p.Traffic()
	}
	return total
}

// MaxDistance returns the largest source-to-destination hop count over
// the given destinations, measuring each at the path that delivers it.
func (s Star) MaxDistance(dests []topology.NodeID) int {
	maxd := 0
	for _, d := range dests {
		best := -1
		for _, p := range s.Paths {
			if h := p.DistanceTo(d); h >= 0 && (best < 0 || h < best) {
				best = h
			}
		}
		if best > maxd {
			maxd = best
		}
	}
	return maxd
}

// Validate checks Definition 3.5: every path starts at the source and
// walks host edges, and the destination set is covered. Disjointness of
// the D_i is inherent (each destination is delivered by the path that
// carries it in its header); covering every destination exactly once is
// the responsibility of the routing algorithm's message preparation and is
// asserted separately by the algorithms' tests.
func (s Star) Validate(t topology.Topology, k MulticastSet) error {
	if len(s.Paths) == 0 {
		return fmt.Errorf("core: star has no paths")
	}
	covered := make(map[topology.NodeID]bool)
	for i, p := range s.Paths {
		if len(p.Nodes) == 0 || p.Nodes[0] != k.Source {
			return fmt.Errorf("core: star path %d does not start at source", i)
		}
		for j := 1; j < len(p.Nodes); j++ {
			if !t.Adjacent(p.Nodes[j-1], p.Nodes[j]) {
				return fmt.Errorf("core: star path %d uses non-edge (%d,%d)",
					i, p.Nodes[j-1], p.Nodes[j])
			}
		}
		for _, v := range p.Nodes {
			covered[v] = true
		}
	}
	for _, d := range k.Dests {
		if !covered[d] {
			return fmt.Errorf("core: star misses destination %d", d)
		}
	}
	return nil
}
