package labeling

import (
	"fmt"

	"multicastnet/internal/topology"
)

// HamiltonCycle is a cyclic node ordering C = (v_1, ..., v_m, v_1) of a
// topology, together with the position mapping h of Section 5.1:
// h(v_i) = i, with positions 1-based as in Tables 5.1 and 5.3.
type HamiltonCycle struct {
	seq []topology.NodeID // v_1 ... v_m (the closing edge back to v_1 is implicit)
	pos []int             // pos[node] = 1-based position in seq
}

// NewHamiltonCycle wraps a node sequence as a HamiltonCycle, validating
// that it visits each node exactly once and that consecutive nodes
// (including v_m back to v_1) are adjacent in t.
func NewHamiltonCycle(t topology.Topology, seq []topology.NodeID) (*HamiltonCycle, error) {
	if len(seq) != t.Nodes() {
		return nil, fmt.Errorf("labeling: cycle visits %d nodes, topology has %d", len(seq), t.Nodes())
	}
	pos := make([]int, t.Nodes())
	for i, v := range seq {
		if v < 0 || int(v) >= t.Nodes() {
			return nil, fmt.Errorf("labeling: cycle node %d out of range", v)
		}
		if pos[v] != 0 {
			return nil, fmt.Errorf("labeling: cycle visits node %d twice", v)
		}
		pos[v] = i + 1
	}
	for i := range seq {
		next := seq[(i+1)%len(seq)]
		if !t.Adjacent(seq[i], next) {
			return nil, fmt.Errorf("labeling: cycle nodes %d,%d not adjacent", seq[i], next)
		}
	}
	return &HamiltonCycle{seq: seq, pos: pos}, nil
}

// Len returns the number of nodes on the cycle.
func (c *HamiltonCycle) Len() int { return len(c.seq) }

// H returns h(v), the 1-based position of v on the cycle.
func (c *HamiltonCycle) H(v topology.NodeID) int { return c.pos[v] }

// At returns the node at 1-based position h.
func (c *HamiltonCycle) At(h int) topology.NodeID {
	if h < 1 || h > len(c.seq) {
		panic(fmt.Sprintf("labeling: cycle position %d out of range [1,%d]", h, len(c.seq)))
	}
	return c.seq[h-1]
}

// SortKey returns the sorting key f of the sorted MP algorithm
// (Fig. 5.1): distances are measured around the cycle starting from the
// source u0, so nodes "behind" the source wrap around:
//
//	f(x) = h(x)             if h(x) >= h(u0)
//	f(x) = h(x) + m         otherwise
func (c *HamiltonCycle) SortKey(u0, x topology.NodeID) int {
	if c.pos[x] < c.pos[u0] {
		return c.pos[x] + len(c.seq)
	}
	return c.pos[x]
}

// MeshHamiltonCycle constructs a Hamilton cycle of a 2D mesh with at least
// one even dimension (fact F1 of Section 5.1). For an even number of rows
// the construction matches Table 5.1 on the 4x4 mesh: row 0 left-to-right,
// rows 1..H-2 serpentine within columns 1..W-1, row H-1 right-to-left, and
// column 0 climbing back to the origin. When only the width is even, the
// transposed construction is used. It returns an error when both
// dimensions are odd (no Hamilton cycle exists: the mesh is bipartite with
// unequal part sizes) or when either dimension is 1.
func MeshHamiltonCycle(m *topology.Mesh2D) (*HamiltonCycle, error) {
	if m.Width < 2 || m.Height < 2 {
		return nil, fmt.Errorf("labeling: %s has no Hamilton cycle", m.Name())
	}
	var seq []topology.NodeID
	switch {
	case m.Height%2 == 0:
		seq = meshCombCycle(m.Width, m.Height, m.ID)
	case m.Width%2 == 0:
		seq = meshCombCycle(m.Height, m.Width, func(x, y int) topology.NodeID { return m.ID(y, x) })
	default:
		return nil, fmt.Errorf("labeling: %s (both dimensions odd) has no Hamilton cycle", m.Name())
	}
	return NewHamiltonCycle(m, seq)
}

// meshCombCycle builds the comb-shaped cycle for a w x h grid with h even,
// using id to map (x, y) to nodes.
func meshCombCycle(w, h int, id func(x, y int) topology.NodeID) []topology.NodeID {
	seq := make([]topology.NodeID, 0, w*h)
	// Row 0, left to right.
	for x := 0; x < w; x++ {
		seq = append(seq, id(x, 0))
	}
	// Rows 1..h-2 serpentine within columns 1..w-1. Row 1 runs right to
	// left (we arrive at x = w-1), row 2 left to right, and so on; since
	// h is even there are an even number of such rows, so the serpentine
	// exits at x = w-1 ready to descend into the last row.
	for y := 1; y <= h-2; y++ {
		if y%2 == 1 {
			for x := w - 1; x >= 1; x-- {
				seq = append(seq, id(x, y))
			}
		} else {
			for x := 1; x <= w-1; x++ {
				seq = append(seq, id(x, y))
			}
		}
	}
	// Last row, right to left, reaching column 0.
	for x := w - 1; x >= 0; x-- {
		seq = append(seq, id(x, h-1))
	}
	// Climb column 0 back toward the origin.
	for y := h - 2; y >= 1; y-- {
		seq = append(seq, id(0, y))
	}
	return seq
}

// PathLabeling exposes a Hamilton cycle, opened at its first node, as a
// Labeling: node v_1 gets label 0, v_2 label 1, and so on. It lets any
// Hamilton cycle serve as the network partitioning of Section 6.2.2 —
// including deliberately poor ones, which is the Fig. 6.10 ablation (the
// comb-shaped cycle of MeshHamiltonCycle routes (0,3) to (0,0) on a 4x4
// mesh in 5 hops instead of 3).
type PathLabeling struct {
	Cycle *HamiltonCycle
}

// N implements Labeling.
func (l PathLabeling) N() int { return l.Cycle.Len() }

// Label implements Labeling.
func (l PathLabeling) Label(v topology.NodeID) int { return l.Cycle.H(v) - 1 }

// At implements Labeling.
func (l PathLabeling) At(label int) topology.NodeID { return l.Cycle.At(label + 1) }

// CubeHamiltonCycle constructs the Gray-code Hamilton cycle of an n-cube,
// matching Table 5.3 on the 4-cube: node at position i is the i-th
// binary-reflected Gray codeword. The Gray sequence is cyclic (the last
// codeword differs from the first in one bit), so it is a Hamilton cycle.
func CubeHamiltonCycle(h *topology.Hypercube) (*HamiltonCycle, error) {
	seq := make([]topology.NodeID, h.Nodes())
	for i := range seq {
		seq[i] = topology.NodeID(GrayEncode(uint(i)))
	}
	return NewHamiltonCycle(h, seq)
}
