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
// graph; fault.LiveRouter keeps them in a set of its own).
type GraphDelta struct {
	FailNodes, RepairNodes []NodeID
	FailLinks, RepairLinks []Link
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
// per-destination BFS and memoized behind an internal mutex, so
// concurrent readers within an epoch are safe.
type LiveMasked struct {
	base      Topology
	epoch     uint64
	deadNode  []bool
	deadNodes int // count of true entries in deadNode
	deadLink  map[Link]bool
	neighbors [][]NodeID

	// Lazily computed per-destination distance rows, valid until a delta
	// changes the dead sets. Unreachable pairs hold Nodes(), which needs
	// 32 bits from 32,768 nodes on. queue is the BFS queue every new row
	// reuses; mu guards both.
	mu    sync.Mutex
	rows  map[NodeID][]int32
	queue []NodeID
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
// bumped. Failing dead hardware and repairing healthy hardware are
// no-ops. A delta that changes no dead set keeps the memoized distance
// rows; any other discards them.
func (m *LiveMasked) Apply(d GraphDelta) {
	n := m.base.Nodes()
	touched := make(map[NodeID]bool)
	touchNode := func(v NodeID, dead bool) {
		if m.deadNode[v] == dead {
			return
		}
		m.deadNode[v] = dead
		if dead {
			m.deadNodes++
		} else {
			m.deadNodes--
		}
		touched[v] = true
		for _, w := range m.base.Neighbors(v, nil) {
			touched[w] = true
		}
	}
	for _, v := range d.FailNodes {
		CheckNode(v, n, m)
		touchNode(v, true)
	}
	for _, v := range d.RepairNodes {
		CheckNode(v, n, m)
		touchNode(v, false)
	}
	touchLink := func(l Link, fail bool) {
		l = NormLink(l.U, l.V)
		CheckNode(l.U, n, m)
		CheckNode(l.V, n, m)
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

	var buf []NodeID
	for v := range touched {
		m.neighbors[v] = m.rebuildRow(v, m.neighbors[v][:0], &buf)
	}
	m.epoch++
	if len(touched) > 0 {
		m.mu.Lock()
		m.rows = make(map[NodeID][]int32)
		m.mu.Unlock()
	}
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
	CheckNode(v, len(m.deadNode), m)
	return append(buf, m.neighbors[v]...)
}

// Port implements Topology for the base topology: masking removes links
// but renumbers none, so a channel keeps its id across fault epochs.
func (m *LiveMasked) Port(u, v NodeID) int { return m.base.Port(u, v) }

// PortNeighbor implements Topology for the base topology, like Port.
func (m *LiveMasked) PortNeighbor(u NodeID, p int) NodeID { return m.base.PortNeighbor(u, p) }

// Adjacent implements Topology over the current epoch's masked graph.
func (m *LiveMasked) Adjacent(u, v NodeID) bool {
	CheckNode(u, len(m.deadNode), m)
	CheckNode(v, len(m.deadNode), m)
	return !m.deadNode[u] && !m.deadNode[v] &&
		!m.deadLink[NormLink(u, v)] && m.base.Adjacent(u, v)
}

// Distance implements Topology over the masked graph; unreachable pairs
// return Nodes() (see the type comment). It reads v's row, computed by
// BFS on first use per destination and memoized until the dead sets
// change.
func (m *LiveMasked) Distance(u, v NodeID) int {
	n := len(m.deadNode)
	CheckNode(u, n, m)
	CheckNode(v, n, m)
	return int(m.row(v)[u])
}

// Reachable reports whether a path exists between u and v in the current
// epoch's masked graph.
func (m *LiveMasked) Reachable(u, v NodeID) bool {
	return m.Distance(u, v) < len(m.deadNode)
}

// Diameter implements Topology: the maximum distance over reachable
// pairs of the current epoch. It materializes every distance row, so it
// costs a full all-pairs BFS on first use; routing never calls
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
	CheckNode(v, len(m.deadNode), m)
	return m.deadNode[v]
}

// LinkDead reports whether the (undirected) link between u and v is
// currently masked out, either directly or via a dead endpoint.
func (m *LiveMasked) LinkDead(u, v NodeID) bool {
	CheckNode(u, len(m.deadNode), m)
	CheckNode(v, len(m.deadNode), m)
	return m.deadNode[u] || m.deadNode[v] || m.deadLink[NormLink(u, v)]
}

// Healthy reports, in O(1), whether no node or link is dead.
func (m *LiveMasked) Healthy() bool { return m.deadNodes == 0 && len(m.deadLink) == 0 }

// row returns the memoized distances from u to every node (equally, by
// symmetry, from every node to u), computing them by BFS over the live
// adjacency on first use since the dead sets last changed.
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
		if m.queue == nil {
			m.queue = make([]NodeID, 0, n)
		}
		queue := append(m.queue[:0], u)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
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
