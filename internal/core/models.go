// Package core defines the multicast set of Chapter 3, the multicast
// path (MP) and multicast cycle (MC) models with their validity
// predicates (Definitions 3.1 and 3.2) and traffic metric, and the
// partial-order-preserving routing function R of Sections 6.2.2/6.3.
//
// The other route models have one type each elsewhere: Steiner tree (ST)
// and multicast tree (MT) patterns are heuristics.STResult, and
// multicast stars (MS) are dfr.Star and, as the registry's routes,
// routing.Plan.
package core

import (
	"fmt"

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
