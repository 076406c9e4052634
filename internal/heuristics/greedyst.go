package heuristics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"multicastnet/internal/core"
	"multicastnet/internal/topology"
)

// RegionTopology is the topology contract of the greedy ST algorithm: it
// needs constant-time location of the node nearest to a target among all
// nodes on shortest paths between two ends (Section 5.2).
type RegionTopology interface {
	topology.Topology
	topology.ShortestRegion
}

// STResult is the routing pattern produced by a multicast tree/subgraph
// algorithm under distributed execution: the multiset of link
// transmissions and per-destination delivery depths.
type STResult struct {
	// Links counts message transmissions over links — the traffic metric
	// of Chapter 7.
	Links int
	// Edges maps each directed link (from, to) to the number of message
	// copies sent over it.
	Edges map[[2]topology.NodeID]int
	// Delivered maps each destination to the hop count at which its copy
	// arrived.
	Delivered map[topology.NodeID]int
}

func newSTResult() *STResult {
	return &STResult{
		Edges:     make(map[[2]topology.NodeID]int),
		Delivered: make(map[topology.NodeID]int),
	}
}

func (r *STResult) send(from, to topology.NodeID) {
	r.Edges[[2]topology.NodeID{from, to}]++
	r.Links++
}

// MaxDepth returns the largest delivery depth.
func (r *STResult) MaxDepth() int {
	maxd := 0
	for _, d := range r.Delivered {
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Validate checks that every destination received the message and that
// every used link is a host-graph edge.
func (r *STResult) Validate(t topology.Topology, k core.MulticastSet) error {
	for _, d := range k.Dests {
		if _, ok := r.Delivered[d]; !ok {
			return fmt.Errorf("heuristics: destination %d never delivered", d)
		}
	}
	for e := range r.Edges {
		if !t.Adjacent(e[0], e[1]) {
			return fmt.Errorf("heuristics: transmission over non-edge (%d,%d)", e[0], e[1])
		}
	}
	return nil
}

// IsTreePattern reports whether the used links, viewed as undirected
// edges, form a tree (each link used once, connected, acyclic).
func (r *STResult) IsTreePattern() bool {
	und := make(map[[2]topology.NodeID]bool)
	nodes := make(map[topology.NodeID]int)
	nextIdx := 0
	idx := func(v topology.NodeID) int {
		if i, ok := nodes[v]; ok {
			return i
		}
		nodes[v] = nextIdx
		nextIdx++
		return nodes[v]
	}
	type edge struct{ a, b int }
	var edges []edge
	for e, n := range r.Edges {
		if n != 1 {
			return false
		}
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		key := [2]topology.NodeID{a, b}
		if und[key] {
			return false // link used in both directions
		}
		und[key] = true
		edges = append(edges, edge{idx(a), idx(b)})
	}
	if len(edges) != len(nodes)-1 {
		return false
	}
	// Union-find connectivity check.
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ra, rb := find(e.a), find(e.b)
		if ra == rb {
			return false
		}
		parent[ra] = rb
	}
	return true
}

// prepareGreedyST fills ws.sorted with the destinations in ascending
// order of distance from the source, ties broken by node id — the
// message-preparation step of Fig. 5.3.
func (ws *Workspace) prepareGreedyST(t topology.Topology, k core.MulticastSet) {
	ws.keys = ws.keys[:0]
	for _, d := range k.Dests {
		ws.keys = append(ws.keys, int64(t.Distance(k.Source, d))<<32|int64(d))
	}
	ws.sortPacked()
}

// GreedySTPrepare is the message-preparation part (Fig. 5.3): sort the
// destinations in ascending order of distance from the source.
func GreedySTPrepare(t topology.Topology, k core.MulticastSet) []topology.NodeID {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	ws.prepareGreedyST(t, k)
	out := make([]topology.NodeID, len(ws.sorted))
	copy(out, ws.sorted)
	return out
}

// greedySearch is the topology as Step 4(a)-(b) of Fig. 5.4 searches it,
// resolved once per call by greedyEntry: a mesh or a cube is searched by
// arithmetic on node ids, any other topology through ShortestRegion.
type greedySearch struct {
	t    RegionTopology
	mesh *topology.Mesh2D // non-nil: search by box distance
	cube bool             // search by bitwise distance
}

// greedyEntry dispatches on t's concrete type once per kernel call. It
// also returns t as the Topology that the router, the workspace set-up
// and the destination sort take, converted from the concrete type for a
// mesh or a cube: converting one interface type to another calls
// runtime.typeAssert, which about once in 1024 calls allocates its call
// site's cache, so the warm kernels would not stay allocation-free.
func greedyEntry(t RegionTopology) (topology.Topology, greedySearch) {
	switch tt := t.(type) {
	case *topology.Mesh2D:
		return tt, greedySearch{t: tt, mesh: tt}
	case *topology.Hypercube:
		return tt, greedySearch{t: tt, cube: true}
	}
	return t, greedySearch{t: t}
}

// meshBox is the rectangle of 2D-mesh coordinates that a tree edge's
// ends span, x1 <= x2 and y1 <= y2: the edge's shortest-path region.
type meshBox struct{ x1, x2, y1, y2 int32 }

// newMeshBox returns the box of the edge (a, b) on a mesh of width w.
func newMeshBox(w int, a, b topology.NodeID) meshBox {
	ax, ay := int32(int(a)%w), int32(int(a)/w)
	bx, by := int32(int(b)%w), int32(int(b)/w)
	return meshBox{min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)}
}

// trAdd appends a contracted-tree edge, with its box on a mesh, and
// marks both ends as tree members in ws.tmp.
func (ws *Workspace) trAdd(s greedySearch, a, b topology.NodeID) {
	ws.trEdges = append(ws.trEdges, [2]topology.NodeID{a, b})
	if s.mesh != nil {
		ws.trBox = append(ws.trBox, newMeshBox(s.mesh.Width, a, b))
	}
	ws.tmp.mark(int32(a))
	ws.tmp.mark(int32(b))
}

// buildGreedyTree runs Steps 3-4 of Fig. 5.4: starting from the edge
// (u, dests[0]), each further destination is attached at the nearest
// node over all shortest-path regions of current tree edges, splitting
// the host edge when the attachment point is interior. The contracted
// tree is left in ws.trEdges (insertion-ordered for determinism) and
// threaded into incidence lists (threadTree), with membership marks in
// ws.tmp. The node ids are not range-checked here: the caller's
// prepareGreedyST has measured each one's distance from the source.
func (ws *Workspace) buildGreedyTree(s greedySearch, u topology.NodeID, dests []topology.NodeID) {
	// A tree has fewer edges than the topology has nodes, so edge
	// arrays sized to the node count never grow while a tree is built.
	ws.trEdges = slices.Grow(ws.trEdges[:0], ws.nodes)
	if s.mesh != nil {
		ws.trBox = slices.Grow(ws.trBox[:0], ws.nodes)
	}
	ws.tmp.reset(ws.nodes)
	ws.trAdd(s, u, dests[0])
	for _, ui := range dests[1:] {
		if ws.tmp.has(int32(ui)) {
			continue // already a tree node (e.g. a Steiner point that is also a destination)
		}
		// Step 4(a)-(b): the edge whose shortest-path region is nearest
		// to ui, and the node of that region nearest to ui.
		var best int
		switch {
		case s.mesh != nil:
			best = ws.nearestEdgeMesh(s.mesh.Width, ui)
		case s.cube:
			best = ws.nearestEdgeCube(ui)
		default:
			best = ws.nearestEdge(s.t, ui)
		}
		e := ws.trEdges[best]
		v := s.t.NearestOnShortestPaths(e[0], e[1], ui)
		if v != e[0] && v != e[1] {
			// Step 4(c): split edge (s,t) at v.
			ws.trEdges[best] = [2]topology.NodeID{e[0], v}
			if s.mesh != nil {
				ws.trBox[best] = newMeshBox(s.mesh.Width, e[0], v)
			}
			ws.trAdd(s, v, e[1])
		}
		if ui != v {
			// Step 4(d).
			ws.trAdd(s, v, ui)
		}
	}
	ws.threadTree()
}

// The nearestEdge searches return the index of the first tree edge at
// the least distance from u to its shortest-path region. A distance of
// zero cannot be beaten, so each search stops at its first zero.

// nearestEdge searches any RegionTopology through its interface.
func (ws *Workspace) nearestEdge(t RegionTopology, u topology.NodeID) int {
	best, bestD := 0, math.MaxInt
	for i, e := range ws.trEdges {
		if d := t.Distance(u, t.NearestOnShortestPaths(e[0], e[1], u)); d < bestD {
			best, bestD = i, d
			if d == 0 {
				break
			}
		}
	}
	return best
}

// nearestEdgeMesh searches a 2D mesh of width w by the edges' boxes: the
// distance is how far u lies outside a box along each axis.
func (ws *Workspace) nearestEdgeMesh(w int, u topology.NodeID) int {
	ux, uy := int32(int(u)%w), int32(int(u)/w)
	best, bestD := 0, int32(math.MaxInt32)
	for i, b := range ws.trBox {
		if d := max(b.x1-ux, 0, ux-b.x2) + max(b.y1-uy, 0, uy-b.y2); d < bestD {
			best, bestD = i, d
			if d == 0 {
				break
			}
		}
	}
	return best
}

// nearestEdgeCube searches a hypercube, where an edge's region frees the
// bits in which its ends differ and the distance counts u's other bits
// that differ from the ends'.
func (ws *Workspace) nearestEdgeCube(u topology.NodeID) int {
	best, bestD := 0, math.MaxInt
	for i, e := range ws.trEdges {
		a, b := uint64(e[0]), uint64(e[1])
		if d := bits.OnesCount64((uint64(u) ^ a) &^ (a ^ b)); d < bestD {
			best, bestD = i, d
			if d == 0 {
				break
			}
		}
	}
	return best
}

// threadTree links each contracted-tree node's incident edges into a
// list, in edge order: slot 2i+j stands for end j of ws.trEdges[i],
// ws.trHead[v] is the first slot of v's list (-1 for none) and
// ws.trNext[s] the slot after s. Pushing the slots on in reverse leaves
// every list in ascending order.
func (ws *Workspace) threadTree() {
	if len(ws.trHead) < ws.nodes {
		ws.trHead = make([]int32, ws.nodes)
	}
	n := 2 * len(ws.trEdges)
	ws.trNext = slices.Grow(ws.trNext[:0], max(n, 2*ws.nodes))[:n]
	for _, e := range ws.trEdges {
		ws.trHead[e[0]], ws.trHead[e[1]] = -1, -1
	}
	for s := int32(n - 1); s >= 0; s-- {
		v := ws.trEdges[s>>1][s&1]
		ws.trNext[s] = ws.trHead[v]
		ws.trHead[v] = s
	}
}

// far returns the node at the other end of incidence slot s's edge.
func (ws *Workspace) far(s int32) topology.NodeID { return ws.trEdges[s>>1][s&1^1] }

// markSubtree marks (in ws.tmp) every node of the contracted subtree
// containing start when the edge back to parent is removed. The tree is
// acyclic, so a visited-marking DFS that seeds parent as visited yields
// exactly the parent-exclusion membership. Note this resets ws.tmp, so
// tree-membership marks from buildGreedyTree are consumed.
func (ws *Workspace) markSubtree(start, parent topology.NodeID) {
	ws.tmp.reset(ws.nodes)
	ws.tmp.mark(int32(parent))
	ws.tmp.mark(int32(start))
	ws.nstack = append(ws.nstack[:0], start)
	for len(ws.nstack) > 0 {
		v := ws.nstack[len(ws.nstack)-1]
		ws.nstack = ws.nstack[:len(ws.nstack)-1]
		for s := ws.trHead[v]; s >= 0; s = ws.trNext[s] {
			if w := ws.far(s); !ws.tmp.has(int32(w)) {
				ws.tmp.mark(int32(w))
				ws.nstack = append(ws.nstack, w)
			}
		}
	}
}

// GreedySTCarried runs the greedy ST algorithm in the paper's alternative
// implementation (end of Section 5.2): the source computes the complete
// greedy Steiner tree once and passes it in the message, so replicate
// nodes need no recomputation. The tree construction is identical
// (Steps 3–4 of Fig. 5.4 over the whole sorted destination list); each
// contracted tree edge is realized by a shortest path, so the total
// traffic is the sum of the contracted edge lengths. This is the variant
// used for the large Fig. 7.3/7.4 sweeps, where per-hop recomputation
// (O(k^2) at every replicate node) would dominate. It returns the link
// traffic; the full pattern stays in the workspace run log.
func (ws *Workspace) GreedySTCarried(t RegionTopology, k core.MulticastSet) int {
	tp, s := greedyEntry(t)
	router := ws.router(tp)
	ws.begin(tp, k)
	ws.prepareGreedyST(tp, k)

	// Build the complete contracted tree at the source.
	ws.buildGreedyTree(s, k.Source, ws.sorted)

	// Walk the contracted tree from the source, realizing each edge by a
	// shortest path and accounting traffic and delivery depths.
	ws.deliver(k.Source, 0)
	ws.stack = append(ws.stack[:0], stVisit{node: k.Source, parent: k.Source, depth: 0})
	for len(ws.stack) > 0 {
		cur := ws.stack[len(ws.stack)-1]
		ws.stack = ws.stack[:len(ws.stack)-1]
		ws.deliver(cur.node, cur.depth)
		for sl := ws.trHead[cur.node]; sl >= 0; sl = ws.trNext[sl] {
			next := ws.far(sl)
			if next == cur.parent {
				continue // the root's sentinel parent is itself, never adjacent
			}
			hops := int32(0)
			for at := cur.node; at != next; {
				nh := router.NextHopUnicast(at, next)
				ws.send(at, nh)
				at = nh
				hops++
			}
			ws.stack = append(ws.stack, stVisit{node: next, parent: cur.node, depth: cur.depth + hops})
		}
	}
	return len(ws.edges)
}

// GreedySTCarried runs the source-computed greedy ST variant and returns
// the delivered routing pattern. See Workspace.GreedySTCarried for the
// allocation-free form.
func GreedySTCarried(t RegionTopology, k core.MulticastSet) *STResult {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	ws.GreedySTCarried(t, k)
	return ws.stResult()
}

// GreedyST runs the greedy ST algorithm of Section 5.2 under distributed
// execution and returns the link traffic (pattern in the workspace run
// log). Bypass nodes forward the message one hop along a shortest path
// toward the sublist head using the topology's deterministic unicast
// router; replicate nodes rebuild the greedy Steiner subtree over their
// sublist and split it among their sons (Fig. 5.4). Messages carry their
// destination sublists as immutable segments of the workspace arena.
func (ws *Workspace) GreedyST(t RegionTopology, k core.MulticastSet) int {
	tp, s := greedyEntry(t)
	router := ws.router(tp)
	ws.begin(tp, k)
	ws.prepareGreedyST(tp, k)

	// A message is (current node, hop depth, arena segment) with
	// segment[0] the replicate target.
	ws.arena = append(ws.arena[:0], k.Source)
	ws.arena = append(ws.arena, ws.sorted...)
	ws.msgs = append(ws.msgs[:0], stMsg{at: k.Source, off: 0, n: int32(len(ws.arena))})
	for head := 0; head < len(ws.msgs); head++ {
		msg := ws.msgs[head]
		list := ws.arena[msg.off : msg.off+msg.n]
		u := list[0]
		if msg.at != u {
			// Step 1: bypass node; forward toward u.
			next := router.NextHopUnicast(msg.at, u)
			ws.send(msg.at, next)
			ws.msgs = append(ws.msgs, stMsg{at: next, depth: msg.depth + 1, off: msg.off, n: msg.n})
			continue
		}
		// Arrived at the replicate target: deliver if it is a
		// destination.
		ws.deliver(u, msg.depth)
		rest := list[1:]
		if len(rest) == 0 {
			continue // Step 2
		}
		// Steps 3-5: split the remaining list among the sons of u, the
		// tree neighbors of u in edge order. The rest slice stays
		// readable even if arena appends below reallocate (segments are
		// immutable; the old backing array is intact).
		ws.buildGreedyTree(s, u, rest)
		for sl := ws.trHead[u]; sl >= 0; sl = ws.trNext[sl] {
			r := ws.far(sl)
			ws.markSubtree(r, u)
			off := int32(len(ws.arena))
			ws.arena = append(ws.arena, r)
			for _, d := range rest {
				if d != r && ws.tmp.has(int32(d)) {
					ws.arena = append(ws.arena, d)
				}
			}
			next := router.NextHopUnicast(u, r)
			ws.send(u, next)
			ws.msgs = append(ws.msgs, stMsg{at: next, depth: msg.depth + 1, off: off, n: int32(len(ws.arena)) - off})
		}
	}
	return len(ws.edges)
}

// GreedyST runs the greedy ST algorithm of Section 5.2 under distributed
// execution and returns the delivered routing pattern. See
// Workspace.GreedyST for the allocation-free form.
func GreedyST(t RegionTopology, k core.MulticastSet) *STResult {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	ws.GreedyST(t, k)
	return ws.stResult()
}
