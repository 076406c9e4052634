package topology

import (
	"fmt"
	"math/bits"
)

// Hypercube is the n-dimensional binary cube of Definition 4.2: 2^n nodes,
// each with a unique n-bit address; two nodes are adjacent exactly when
// their addresses differ in one bit. The NodeID of a node is its binary
// address interpreted as an integer.
type Hypercube struct {
	Dim int // n, the number of dimensions
}

// NewHypercube returns an n-cube. It panics with CheckHypercube's error
// for a dimension it rejects.
func NewHypercube(n int) *Hypercube {
	if err := CheckHypercube(n); err != nil {
		panic(err.Error())
	}
	return &Hypercube{Dim: n}
}

// CheckHypercube returns an error unless 1 <= n <= 62. Dimensions up to
// 62 are accepted so that the Theorem 4.5 reductions (which need a
// 4k-cube for a k-vertex grid) can be materialized; Nodes() stays within
// int range.
func CheckHypercube(n int) error {
	if n < 1 || n > 62 {
		return fmt.Errorf("topology: invalid hypercube dimension %d", n)
	}
	return nil
}

// Name implements Topology.
func (h *Hypercube) Name() string { return fmt.Sprintf("%d-cube", h.Dim) }

// Nodes implements Topology.
func (h *Hypercube) Nodes() int { return 1 << h.Dim }

// MaxDegree implements Topology.
func (h *Hypercube) MaxDegree() int { return h.Dim }

// Neighbors implements Topology. Neighbors are produced from dimension 0
// (least-significant bit) upward.
func (h *Hypercube) Neighbors(v NodeID, buf []NodeID) []NodeID {
	CheckNode(v, h.Nodes(), h)
	for i := 0; i < h.Dim; i++ {
		buf = append(buf, v^NodeID(1<<i))
	}
	return buf
}

// Adjacent implements Topology.
func (h *Hypercube) Adjacent(u, v NodeID) bool {
	return bits.OnesCount(uint(u^v)) == 1
}

// Port implements Topology: the dimension u and v differ in.
func (h *Hypercube) Port(u, v NodeID) int {
	n, x := uint(h.Nodes()), uint(u^v)
	if uint(u) >= n || uint(v) >= n || x == 0 || x&(x-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(x)
}

// PortNeighbor implements Topology: u with bit p flipped.
func (h *Hypercube) PortNeighbor(u NodeID, p int) NodeID {
	if uint(u) >= uint(h.Nodes()) || uint(p) >= uint(h.Dim) {
		return -1
	}
	return u ^ NodeID(1)<<p
}

// Distance implements Topology: the Hamming distance ||b(u) XOR b(v)||.
func (h *Hypercube) Distance(u, v NodeID) int {
	CheckNode(u, h.Nodes(), h)
	CheckNode(v, h.Nodes(), h)
	return bits.OnesCount(uint(u ^ v))
}

// Diameter implements Topology.
func (h *Hypercube) Diameter() int { return h.Dim }

// NearestOnShortestPaths implements ShortestRegion using the bitwise rule
// of Section 5.2: for each bit position j, the region node takes u's bit
// where s and t differ and the common bit where they agree.
func (h *Hypercube) NearestOnShortestPaths(s, t, u NodeID) NodeID {
	CheckNode(s, h.Nodes(), h)
	CheckNode(t, h.Nodes(), h)
	CheckNode(u, h.Nodes(), h)
	differ := s ^ t // bits free to vary along shortest s-t paths
	return (u & differ) | (s &^ differ)
}
