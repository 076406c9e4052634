// Package topology provides the host-graph models of multicomputer
// interconnection networks studied in the dissertation: 2D mesh, 3D mesh,
// hypercube (n-cube), the general k-ary n-cube, and the ring.
//
// Each node of a topology is identified by a dense integer NodeID in
// [0, Nodes()). Concrete topologies expose coordinate conversions so that
// algorithms can be written against the paper's addressing conventions
// ((x, y) pairs for meshes, n-bit binary addresses for hypercubes).
package topology

import "fmt"

// NodeID identifies a node (processor) of a topology. IDs are dense
// integers in [0, Nodes()).
type NodeID int

// Topology is the interface every host graph implements. It corresponds to
// the host graph G(V, E) of Chapter 3: nodes are processors, edges are
// bidirectional communication links.
type Topology interface {
	// Name returns a short human-readable description, e.g. "8x8 mesh".
	Name() string
	// Nodes returns |V(G)|.
	Nodes() int
	// MaxDegree returns the maximum node degree.
	MaxDegree() int
	// Neighbors appends the neighbors of v to buf and returns the
	// extended slice. Callers reuse buf across calls in hot loops.
	Neighbors(v NodeID, buf []NodeID) []NodeID
	// Adjacent reports whether (u, v) is an edge.
	Adjacent(u, v NodeID) bool
	// Port numbers the directed link u -> v among the links leaving u:
	// an index in [0, MaxDegree()) computed from u's and v's
	// coordinates, or -1 when u -> v is not a link (an endpoint out of
	// range, u == v, or v not adjacent to u). When u has every neighbor
	// its shape allows, port p leads to the p-th node of Neighbors(u).
	// Masked views answer for their base topology, so a port survives
	// fault epochs.
	Port(u, v NodeID) int
	// PortNeighbor inverts Port: the node port p of u leads to, or -1
	// when u is out of range, p is outside [0, MaxDegree()), or the port
	// leads off a border.
	PortNeighbor(u NodeID, p int) NodeID
	// Distance returns d_G(u, v), the length of a shortest path.
	Distance(u, v NodeID) int
	// Diameter returns the maximum distance over all node pairs.
	Diameter() int
}

// ShortestRegion is implemented by topologies that can locate, in constant
// time, the node nearest to u among all nodes lying on shortest paths
// between s and t. This is the primitive required by the greedy ST
// algorithm (Section 5.2): for 2D mesh it is coordinate clamping, for the
// hypercube it is the bitwise merge d_j = a_j if b_j != c_j else b_j.
type ShortestRegion interface {
	// NearestOnShortestPaths returns the node v minimizing d(u, v) over
	// all v on some shortest path from s to t.
	NearestOnShortestPaths(s, t, u NodeID) NodeID
}

// CheckNode panics when v is out of range for a topology of n nodes. The
// topologies are used by randomized simulations; failing loudly on a bad
// address catches workload-generation bugs immediately. It takes the
// topology rather than its name so the Name() Sprintf is only paid on the
// panic path — CheckNode guards every coordinate conversion in the
// simulator's inner loop. Code that indexes its own per-node arrays calls
// it too, so a bad node gets the same message wherever it is caught.
func CheckNode(v NodeID, n int, t Topology) {
	if v < 0 || int(v) >= n {
		panic(fmt.Sprintf("topology: node %d out of range for %s with %d nodes", v, t.Name(), n))
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
