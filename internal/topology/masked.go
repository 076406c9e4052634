package topology

import (
	"fmt"
	"sort"
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

// Masked wraps a base topology with a set of failed links and nodes — the
// host graph as degraded-mode routing sees it. A dead node loses all its
// incident links; a dead link is removed in both directions. The node-id
// space is unchanged (dead nodes remain addressable but isolated), so
// labelings and routing tables built over the base topology keep their
// indices.
//
// Distance is precomputed by BFS over the masked graph. For unreachable
// pairs it returns Nodes() — one more than any real path length — so
// distance-guided routing simply finds no distance-reducing neighbor;
// use Reachable to test connectivity explicitly.
type Masked struct {
	base      Topology
	name      string
	deadNode  []bool
	deadLink  map[Link]bool
	neighbors [][]NodeID
	dist      []int16
	diameter  int
}

// NewMasked builds the masked view of base with the given dead nodes and
// dead links. Out-of-range dead nodes panic; dead links between
// non-adjacent nodes are ignored. The inputs are copied.
func NewMasked(base Topology, deadNodes []NodeID, deadLinks []Link) *Masked {
	n := base.Nodes()
	m := &Masked{
		base:     base,
		deadNode: make([]bool, n),
		deadLink: make(map[Link]bool, len(deadLinks)),
	}
	for _, v := range deadNodes {
		checkNode(v, n, base)
		m.deadNode[v] = true
	}
	for _, l := range deadLinks {
		l = NormLink(l.U, l.V)
		checkNode(l.U, n, base)
		checkNode(l.V, n, base)
		if base.Adjacent(l.U, l.V) {
			m.deadLink[l] = true
		}
	}
	m.neighbors = make([][]NodeID, n)
	for v := 0; v < n; v++ {
		if m.deadNode[v] {
			continue
		}
		for _, p := range base.Neighbors(NodeID(v), nil) {
			if m.deadNode[p] || m.deadLink[NormLink(NodeID(v), p)] {
				continue
			}
			m.neighbors[v] = append(m.neighbors[v], p)
		}
	}
	m.computeDistances()
	m.name = fmt.Sprintf("%s/masked[%dL,%dN,%08x]",
		base.Name(), len(m.deadLink), len(deadNodes), m.fingerprint())
	return m
}

// computeDistances fills the all-pairs table by BFS from every node.
func (m *Masked) computeDistances() {
	n := m.base.Nodes()
	unreach := int16(n)
	m.dist = make([]int16, n*n)
	for i := range m.dist {
		m.dist[i] = unreach
	}
	queue := make([]NodeID, 0, n)
	for s := 0; s < n; s++ {
		row := m.dist[s*n : (s+1)*n]
		if m.deadNode[s] {
			continue
		}
		row[s] = 0
		queue = append(queue[:0], NodeID(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			du := row[u]
			for _, v := range m.neighbors[u] {
				if row[v] == unreach {
					row[v] = du + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range row {
			if d != unreach && int(d) > m.diameter {
				m.diameter = int(d)
			}
		}
	}
}

// fingerprint hashes the dead sets (FNV-1a over a sorted encoding) so
// masked topologies with different faults get distinct names.
func (m *Masked) fingerprint() uint32 {
	links := make([]Link, 0, len(m.deadLink))
	for l := range m.deadLink {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].U != links[j].U {
			return links[i].U < links[j].U
		}
		return links[i].V < links[j].V
	})
	h := uint32(2166136261)
	mix := func(x int) {
		for i := 0; i < 4; i++ {
			h ^= uint32(x >> (8 * i) & 0xff)
			h *= 16777619
		}
	}
	for v, dead := range m.deadNode {
		if dead {
			mix(v)
		}
	}
	mix(-1)
	for _, l := range links {
		mix(int(l.U))
		mix(int(l.V))
	}
	return h
}

// Base returns the underlying healthy topology.
func (m *Masked) Base() Topology { return m.base }

// Name implements Topology.
func (m *Masked) Name() string { return m.name }

// Nodes implements Topology: the id space of the base topology, dead
// nodes included.
func (m *Masked) Nodes() int { return m.base.Nodes() }

// MaxDegree implements Topology (the base bound; masking only removes
// links).
func (m *Masked) MaxDegree() int { return m.base.MaxDegree() }

// Neighbors implements Topology over the masked graph.
func (m *Masked) Neighbors(v NodeID, buf []NodeID) []NodeID {
	checkNode(v, len(m.deadNode), m)
	return append(buf, m.neighbors[v]...)
}

// Port implements Topology for the base topology: masking removes links
// but renumbers none, so a channel keeps its id across fault epochs.
func (m *Masked) Port(u, v NodeID) int { return m.base.Port(u, v) }

// PortNeighbor implements Topology for the base topology, like Port.
func (m *Masked) PortNeighbor(u NodeID, p int) NodeID { return m.base.PortNeighbor(u, p) }

// Adjacent implements Topology over the masked graph.
func (m *Masked) Adjacent(u, v NodeID) bool {
	checkNode(u, len(m.deadNode), m)
	checkNode(v, len(m.deadNode), m)
	return !m.deadNode[u] && !m.deadNode[v] &&
		!m.deadLink[NormLink(u, v)] && m.base.Adjacent(u, v)
}

// Distance implements Topology over the masked graph; unreachable pairs
// return Nodes() (see the type comment).
func (m *Masked) Distance(u, v NodeID) int {
	n := len(m.deadNode)
	checkNode(u, n, m)
	checkNode(v, n, m)
	return int(m.dist[int(u)*n+int(v)])
}

// Reachable reports whether a path exists between u and v in the masked
// graph.
func (m *Masked) Reachable(u, v NodeID) bool {
	return m.Distance(u, v) < len(m.deadNode)
}

// Diameter implements Topology: the maximum distance over reachable
// pairs (0 when nothing is reachable).
func (m *Masked) Diameter() int { return m.diameter }

// NodeDead reports whether v was masked out.
func (m *Masked) NodeDead(v NodeID) bool {
	checkNode(v, len(m.deadNode), m)
	return m.deadNode[v]
}

// LinkDead reports whether the (undirected) link between u and v was
// masked out, either directly or via a dead endpoint.
func (m *Masked) LinkDead(u, v NodeID) bool {
	checkNode(u, len(m.deadNode), m)
	checkNode(v, len(m.deadNode), m)
	return m.deadNode[u] || m.deadNode[v] || m.deadLink[NormLink(u, v)]
}
