package topology

import (
	"fmt"
	"sync"
)

// Link is an undirected host-graph link, stored in canonical (low, high)
// endpoint order so a link and its reverse compare equal.
type Link struct {
	U, V NodeID
}

// NormLink returns the canonical form of the link between u and v.
func NormLink(u, v NodeID) Link {
	if u > v {
		u, v = v, u
	}
	return Link{U: u, V: v}
}

// GraphDelta is one batch of physical host-graph changes: hardware that
// fails and hardware that comes back. It is the topology-level half of a
// fault/repair delta (virtual-channel faults do not change the physical
// graph and are handled by the routing layers above).
type GraphDelta struct {
	FailNodes, RepairNodes []NodeID
	FailLinks, RepairLinks []Link
}

// Empty reports a delta with no changes.
func (d GraphDelta) Empty() bool {
	return len(d.FailNodes) == 0 && len(d.RepairNodes) == 0 &&
		len(d.FailLinks) == 0 && len(d.RepairLinks) == 0
}

// LiveMasked is a base topology with a set of failed links and nodes —
// the host graph as degraded-mode routing sees it — whose dead sets
// evolve by GraphDelta in O(|delta|) work. A dead node loses all its
// incident links; a dead link is removed in both directions. The node-id
// space is unchanged (dead nodes remain addressable but isolated), so
// labelings and routing tables built over the base topology keep their
// indices, and each node's neighbors keep their base order.
//
// Distance is computed by BFS over the masked graph. For unreachable
// pairs it returns Nodes() — one more than any real path length — so
// distance-guided routing simply finds no distance-reducing neighbor;
// use Reachable to test connectivity explicitly. A view for a fixed set
// of dead hardware is a fresh NewLiveMasked plus one Apply.
//
// The masked graph is undirected, so Distance(u, v) reads v's BFS row:
// routing asks the distance from every candidate next hop toward one
// destination, and one row per destination serves all of those queries.
//
// Concurrency contract (the epoch protocol): Apply is a write and must
// not run concurrently with any read; between Apply calls — one epoch —
// any number of goroutines may read. Distance rows are computed lazily by
// per-destination BFS and memoized for the current epoch behind an
// internal mutex, so concurrent readers within an epoch are safe.
type LiveMasked struct {
	base      Topology
	epoch     uint64
	deadNode  []bool
	deadLink  map[Link]bool
	neighbors [][]NodeID

	// Lazily computed per-destination distance rows of the current
	// epoch. Unreachable pairs hold Nodes(), which needs 32 bits from
	// 32,768 nodes on.
	mu   sync.Mutex
	rows map[NodeID][]int32
}

// NewLiveMasked returns the live masked view of base with every node and
// link healthy (epoch 0).
func NewLiveMasked(base Topology) *LiveMasked {
	n := base.Nodes()
	m := &LiveMasked{
		base:      base,
		deadNode:  make([]bool, n),
		deadLink:  make(map[Link]bool),
		neighbors: make([][]NodeID, n),
		rows:      make(map[NodeID][]int32),
	}
	for v := 0; v < n; v++ {
		m.neighbors[v] = base.Neighbors(NodeID(v), nil)
	}
	return m
}

// Apply advances the view by one delta: failed nodes and links leave the
// graph, repaired ones return. Only the neighbor rows of affected nodes
// are rebuilt — O(sum of affected degrees) — and the epoch counter is
// bumped, discarding the memoized distance rows. Failing dead hardware
// and repairing healthy hardware are no-ops. It returns the nodes whose
// adjacency rows changed (ascending, deduplicated), which callers use to
// patch derived per-node tables in place.
func (m *LiveMasked) Apply(d GraphDelta) []NodeID {
	n := m.base.Nodes()
	touched := make(map[NodeID]bool)
	touchNode := func(v NodeID) {
		checkNode(v, n, m)
		touched[v] = true
		for _, w := range m.base.Neighbors(v, nil) {
			touched[w] = true
		}
	}
	for _, v := range d.FailNodes {
		checkNode(v, n, m)
		if !m.deadNode[v] {
			m.deadNode[v] = true
			touchNode(v)
		}
	}
	for _, v := range d.RepairNodes {
		checkNode(v, n, m)
		if m.deadNode[v] {
			m.deadNode[v] = false
			touchNode(v)
		}
	}
	touchLink := func(l Link, fail bool) {
		l = NormLink(l.U, l.V)
		checkNode(l.U, n, m)
		checkNode(l.V, n, m)
		if !m.base.Adjacent(l.U, l.V) {
			return // non-edges are ignored
		}
		if m.deadLink[l] == fail {
			return
		}
		if fail {
			m.deadLink[l] = true
		} else {
			delete(m.deadLink, l)
		}
		touched[l.U] = true
		touched[l.V] = true
	}
	for _, l := range d.FailLinks {
		touchLink(l, true)
	}
	for _, l := range d.RepairLinks {
		touchLink(l, false)
	}

	changed := make([]NodeID, 0, len(touched))
	for v := range touched {
		changed = append(changed, v)
	}
	sortNodeIDs(changed)
	var buf []NodeID
	for _, v := range changed {
		m.neighbors[v] = m.rebuildRow(v, m.neighbors[v][:0], &buf)
	}
	m.epoch++
	m.mu.Lock()
	m.rows = make(map[NodeID][]int32)
	m.mu.Unlock()
	return changed
}

// rebuildRow refilters v's base neighbor list against the dead sets,
// reusing row's storage and keeping the base order.
func (m *LiveMasked) rebuildRow(v NodeID, row []NodeID, buf *[]NodeID) []NodeID {
	if m.deadNode[v] {
		return row[:0]
	}
	*buf = m.base.Neighbors(v, (*buf)[:0])
	for _, p := range *buf {
		if m.deadNode[p] || m.deadLink[NormLink(v, p)] {
			continue
		}
		row = append(row, p)
	}
	return row
}

// Epoch returns the number of deltas applied so far.
func (m *LiveMasked) Epoch() uint64 { return m.epoch }

// Base returns the underlying healthy topology.
func (m *LiveMasked) Base() Topology { return m.base }

// Name implements Topology. It is epoch-stamped: live views are
// identified by their position in the delta stream, not by their dead
// sets.
func (m *LiveMasked) Name() string {
	return fmt.Sprintf("%s/live@%d", m.base.Name(), m.epoch)
}

// Nodes implements Topology: the id space of the base topology, dead
// nodes included.
func (m *LiveMasked) Nodes() int { return m.base.Nodes() }

// MaxDegree implements Topology (the base bound; masking only removes
// links).
func (m *LiveMasked) MaxDegree() int { return m.base.MaxDegree() }

// Neighbors implements Topology over the current epoch's masked graph.
func (m *LiveMasked) Neighbors(v NodeID, buf []NodeID) []NodeID {
	checkNode(v, len(m.deadNode), m)
	return append(buf, m.neighbors[v]...)
}

// NeighborsShared returns v's live adjacency row without copying. The
// returned slice is replaced wholesale (never mutated) by Apply, so
// holding it across epochs yields a stale — not corrupted — view;
// LiveState re-fetches rows for every node Apply reports changed.
func (m *LiveMasked) NeighborsShared(v NodeID) []NodeID {
	checkNode(v, len(m.deadNode), m)
	return m.neighbors[v]
}

// Port implements Topology for the base topology: masking removes links
// but renumbers none, so a channel keeps its id across fault epochs.
func (m *LiveMasked) Port(u, v NodeID) int { return m.base.Port(u, v) }

// PortNeighbor implements Topology for the base topology, like Port.
func (m *LiveMasked) PortNeighbor(u NodeID, p int) NodeID { return m.base.PortNeighbor(u, p) }

// Adjacent implements Topology over the current epoch's masked graph.
func (m *LiveMasked) Adjacent(u, v NodeID) bool {
	checkNode(u, len(m.deadNode), m)
	checkNode(v, len(m.deadNode), m)
	return !m.deadNode[u] && !m.deadNode[v] &&
		!m.deadLink[NormLink(u, v)] && m.base.Adjacent(u, v)
}

// Distance implements Topology over the masked graph; unreachable pairs
// return Nodes() (see the type comment). It reads v's row, computed by
// BFS on first use per destination and memoized for the epoch.
func (m *LiveMasked) Distance(u, v NodeID) int {
	n := len(m.deadNode)
	checkNode(u, n, m)
	checkNode(v, n, m)
	return int(m.row(v)[u])
}

// Reachable reports whether a path exists between u and v in the current
// epoch's masked graph.
func (m *LiveMasked) Reachable(u, v NodeID) bool {
	return m.Distance(u, v) < len(m.deadNode)
}

// Diameter implements Topology: the maximum distance over reachable
// pairs of the current epoch. It materializes every distance row, so it
// costs a full all-pairs BFS on first use per epoch; routing never calls
// it on masked views.
func (m *LiveMasked) Diameter() int {
	diam := 0
	n := len(m.deadNode)
	for s := 0; s < n; s++ {
		if m.deadNode[s] {
			continue
		}
		for _, d := range m.row(NodeID(s)) {
			if int(d) < n && int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam
}

// NodeDead reports whether v is currently masked out.
func (m *LiveMasked) NodeDead(v NodeID) bool {
	checkNode(v, len(m.deadNode), m)
	return m.deadNode[v]
}

// LinkDead reports whether the (undirected) link between u and v is
// currently masked out, either directly or via a dead endpoint.
func (m *LiveMasked) LinkDead(u, v NodeID) bool {
	checkNode(u, len(m.deadNode), m)
	checkNode(v, len(m.deadNode), m)
	return m.deadNode[u] || m.deadNode[v] || m.deadLink[NormLink(u, v)]
}

// row returns the memoized distances from u to every node (equally, by
// symmetry, from every node to u), computing them by BFS over the live
// adjacency on first use in the current epoch.
func (m *LiveMasked) row(u NodeID) []int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.rows[u]; ok {
		return r
	}
	n := len(m.deadNode)
	unreach := int32(n)
	r := make([]int32, n)
	for i := range r {
		r[i] = unreach
	}
	if !m.deadNode[u] {
		r[u] = 0
		queue := make([]NodeID, 0, n)
		queue = append(queue, u)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			dc := r[cur]
			for _, w := range m.neighbors[cur] {
				if r[w] == unreach {
					r[w] = dc + 1
					queue = append(queue, w)
				}
			}
		}
	}
	m.rows[u] = r
	return r
}

// sortNodeIDs sorts ids ascending (insertion sort; delta fan-outs are a
// handful of nodes).
func sortNodeIDs(ids []NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
