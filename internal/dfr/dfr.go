// Package dfr implements the deadlock-free multicast wormhole routing
// schemes of Chapter 6: the tree-like double-channel X-first algorithm
// (Section 6.2.1) and the path-like dual-path, multi-path, and fixed-path
// algorithms (Sections 6.2.2 and 6.3), for both 2D mesh and hypercube
// topologies, together with channel dependency graph construction for
// verifying deadlock freedom (Section 2.3.4).
package dfr

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// Channel identifies a unidirectional physical channel. Class
// distinguishes the replicated copies of a physical link in
// double-channel networks (Section 6.2.1); single-channel schemes use
// class 0.
type Channel struct {
	From, To topology.NodeID
	Class    int
}

// String implements fmt.Stringer.
func (c Channel) String() string {
	if c.Class == 0 {
		return fmt.Sprintf("[%d,%d]", c.From, c.To)
	}
	return fmt.Sprintf("[%d,%d]#%d", c.From, c.To, c.Class)
}

// PathRoute is one wormhole multicast path: the node visiting sequence, a
// channel class, and the set of destinations consumed along it. It is the
// unit of the multicast star model under wormhole switching: the message
// is never replicated once in the network.
type PathRoute struct {
	Nodes []topology.NodeID
	Class int
	Dests []topology.NodeID
	// Classes, when non-nil, assigns a channel class per hop
	// (len(Nodes)-1 entries) and overrides Class. Degraded-mode repair
	// paths use it to escalate the class at each direction reversal so a
	// single worm can cross subnetwork boundaries without creating
	// channel-dependency cycles (see internal/fault).
	Classes []int
}

// HopClass returns the channel class of hop i (the channel from Nodes[i]
// to Nodes[i+1]).
func (p PathRoute) HopClass(i int) int {
	if p.Classes != nil {
		return p.Classes[i]
	}
	return p.Class
}

// Channels returns the channel sequence of the path.
func (p PathRoute) Channels() []Channel {
	out := make([]Channel, 0, len(p.Nodes)-1)
	for i := 1; i < len(p.Nodes); i++ {
		out = append(out, Channel{From: p.Nodes[i-1], To: p.Nodes[i], Class: p.HopClass(i - 1)})
	}
	return out
}

// Star is a complete path-based multicast route: one PathRoute per
// submulticast.
type Star struct {
	Source topology.NodeID
	Paths  []PathRoute
}

// Traffic returns the total number of channels used.
func (s Star) Traffic() int {
	total := 0
	for _, p := range s.Paths {
		total += len(p.Nodes) - 1
	}
	return total
}

// MaxDistance returns the largest hop count from the source to any
// destination.
func (s Star) MaxDistance() int {
	maxd := 0
	for _, p := range s.Paths {
		pos := make(map[topology.NodeID]int, len(p.Nodes))
		for i, n := range p.Nodes {
			if _, ok := pos[n]; !ok {
				pos[n] = i
			}
		}
		for _, d := range p.Dests {
			if h, ok := pos[d]; ok && h > maxd {
				maxd = h
			}
		}
	}
	return maxd
}

// Validate checks that the star delivers every destination exactly once
// over host-graph channels, each path starting at the source.
func (s Star) Validate(t topology.Topology, k core.MulticastSet) error {
	delivered := make(map[topology.NodeID]int)
	for i, p := range s.Paths {
		if len(p.Nodes) == 0 || p.Nodes[0] != s.Source {
			return fmt.Errorf("dfr: path %d does not start at source", i)
		}
		for j := 1; j < len(p.Nodes); j++ {
			if !t.Adjacent(p.Nodes[j-1], p.Nodes[j]) {
				return fmt.Errorf("dfr: path %d uses non-edge (%d,%d)", i, p.Nodes[j-1], p.Nodes[j])
			}
		}
		onPath := make(map[topology.NodeID]bool, len(p.Nodes))
		for _, n := range p.Nodes {
			onPath[n] = true
		}
		for _, d := range p.Dests {
			if !onPath[d] {
				return fmt.Errorf("dfr: path %d does not visit its destination %d", i, d)
			}
			delivered[d]++
		}
	}
	for _, d := range k.Dests {
		if delivered[d] != 1 {
			return fmt.Errorf("dfr: destination %d delivered %d times", d, delivered[d])
		}
	}
	return nil
}

// HighLowPartition is the message preparation of the dual-path algorithm
// (Fig. 6.11): split the destinations into D_H (labels above the source,
// ascending) and D_L (labels below, descending). Both halves share one
// array of len(k.Dests) entries; D_H's capacity ends where D_L begins,
// so appending to either copies it. An empty half is nil.
func HighLowPartition(l labeling.Labeling, k core.MulticastSet) (dh, dl []topology.NodeID) {
	buf := make([]topology.NodeID, len(k.Dests))
	h, lo := 0, len(buf)
	l0 := l.Label(k.Source)
	for _, d := range k.Dests {
		if l.Label(d) > l0 {
			buf[h] = d
			h++
		} else {
			lo--
			buf[lo] = d
		}
	}
	if h > 0 {
		dh = buf[:h:h]
		slices.SortFunc(dh, func(a, b topology.NodeID) int { return cmp.Compare(l.Label(a), l.Label(b)) })
	}
	if lo < len(buf) {
		dl = buf[lo:]
		slices.SortFunc(dl, func(a, b topology.NodeID) int { return cmp.Compare(l.Label(b), l.Label(a)) })
	}
	return dh, dl
}

// routeThrough extends a path from its last node through every
// destination in order using the routing function R (the message routing
// of Fig. 6.12 run to completion).
func routeThrough(t topology.Topology, l labeling.Labeling, start topology.NodeID,
	dests []topology.NodeID) []topology.NodeID {
	nodes := []topology.NodeID{start}
	cur := start
	for _, d := range dests {
		if cur == d {
			continue
		}
		nodes = core.AppendRoute(t, l, cur, d, nodes)
		cur = d
	}
	return nodes
}

// DualPath runs the dual-path multicast routing algorithm (Figs. 6.11 and
// 6.12): at most two label-monotone paths, one through the high-channel
// network and one through the low-channel network. Each subnetwork is
// acyclic, so the scheme is deadlock-free (Assertion 2, Corollary 6.1).
func DualPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet) Star {
	dh, dl := HighLowPartition(l, k)
	s := Star{Source: k.Source}
	if len(dh) > 0 {
		s.Paths = append(s.Paths, PathRoute{
			Nodes: routeThrough(t, l, k.Source, dh),
			Dests: dh,
		})
	}
	if len(dl) > 0 {
		s.Paths = append(s.Paths, PathRoute{
			Nodes: routeThrough(t, l, k.Source, dl),
			Dests: dl,
		})
	}
	return s
}

// FixedPath runs the fixed-path routing of Section 6.2.2 [49]: the upper
// path follows the Hamiltonian path node by node up to the
// highest-labeled destination; the lower path walks down to the
// lowest-labeled one. Trivial to implement in hardware, at the cost of
// visiting every intermediate label.
func FixedPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet) Star {
	dh, dl := HighLowPartition(l, k)
	s := Star{Source: k.Source}
	l0 := l.Label(k.Source)
	if len(dh) > 0 {
		top := l.Label(dh[len(dh)-1])
		nodes := make([]topology.NodeID, 0, top-l0+1)
		for lab := l0; lab <= top; lab++ {
			nodes = append(nodes, l.At(lab))
		}
		s.Paths = append(s.Paths, PathRoute{Nodes: nodes, Dests: dh})
	}
	if len(dl) > 0 {
		bottom := l.Label(dl[len(dl)-1])
		nodes := make([]topology.NodeID, 0, l0-bottom+1)
		for lab := l0; lab >= bottom; lab-- {
			nodes = append(nodes, l.At(lab))
		}
		s.Paths = append(s.Paths, PathRoute{Nodes: nodes, Dests: dl})
	}
	return s
}

// MultiPathMesh runs the multi-path routing algorithm for the 2D mesh
// (Fig. 6.14): D_H is further split between the (up to) two
// higher-labeled neighbors of the source by x-coordinate — the neighbor
// in the source's row serves the destinations on its side of the source
// column, the neighbor in the next row serves the rest — and D_L
// symmetrically, giving up to four label-monotone paths.
func MultiPathMesh(m *topology.Mesh2D, l labeling.Labeling, k core.MulticastSet) Star {
	return MultiPathMeshOn(m, m, l, k)
}

// MultiPathMeshOn is MultiPathMesh with the routed topology decoupled
// from the coordinate mesh: t supplies adjacency and distances (it may be
// a topology.LiveMasked view of m, so degraded-mode routing can run the
// multi-path split over a faulty mesh), m supplies the (x, y) geometry of
// the split rule.
func MultiPathMeshOn(t topology.Topology, m *topology.Mesh2D, l labeling.Labeling, k core.MulticastSet) Star {
	dh, dl := HighLowPartition(l, k)
	s := Star{Source: k.Source}
	x0, _ := m.XY(k.Source)
	split := func(group []topology.NodeID, higher bool) [][]topology.NodeID {
		if len(group) == 0 {
			return nil
		}
		// Find the horizontal neighbor on the relevant side of the
		// labeling, if any.
		var horiz topology.NodeID
		hasHoriz := false
		var buf [4]topology.NodeID
		_, y0 := m.XY(k.Source)
		for _, p := range t.Neighbors(k.Source, buf[:0]) {
			_, py := m.XY(p)
			if py != y0 {
				continue
			}
			if higher == (l.Label(p) > l.Label(k.Source)) {
				horiz, hasHoriz = p, true
			}
		}
		if !hasHoriz {
			return [][]topology.NodeID{group}
		}
		hx, _ := m.XY(horiz)
		var side, rest []topology.NodeID
		for _, d := range group {
			dx, _ := m.XY(d)
			if (hx > x0 && dx >= hx) || (hx < x0 && dx <= hx) {
				side = append(side, d)
			} else {
				rest = append(rest, d)
			}
		}
		var out [][]topology.NodeID
		if len(side) > 0 {
			out = append(out, side)
		}
		if len(rest) > 0 {
			out = append(out, rest)
		}
		return out
	}
	for _, g := range split(dh, true) {
		s.Paths = append(s.Paths, PathRoute{Nodes: routeThrough(t, l, k.Source, g), Dests: g})
	}
	for _, g := range split(dl, false) {
		s.Paths = append(s.Paths, PathRoute{Nodes: routeThrough(t, l, k.Source, g), Dests: g})
	}
	return s
}

// MultiPathCube runs the multi-path routing algorithm for the hypercube
// (Fig. 6.20): the high destinations are split among the source's d
// higher-labeled neighbors v_1 < ... < v_d by label interval
// D_Hi = {w : l(v_i) <= l(w) < l(v_{i+1})}, each submulticast taking its
// first hop to v_i; D_L symmetrically among the lower-labeled neighbors.
func MultiPathCube(h *topology.Hypercube, l labeling.Labeling, k core.MulticastSet) Star {
	return MultiPathCubeOn(h, h, l, k)
}

// MultiPathCubeOn is MultiPathCube with the routed topology decoupled
// from the cube: t supplies adjacency and distances (it may be a
// topology.LiveMasked view of h for degraded-mode routing); h is only
// documentation of the underlying geometry.
func MultiPathCubeOn(t topology.Topology, h *topology.Hypercube, l labeling.Labeling, k core.MulticastSet) Star {
	dh, dl := HighLowPartition(l, k)
	s := Star{Source: k.Source}
	l0 := l.Label(k.Source)
	var buf [32]topology.NodeID
	var hi, lo []topology.NodeID
	for _, p := range t.Neighbors(k.Source, buf[:0]) {
		if l.Label(p) > l0 {
			hi = append(hi, p)
		} else {
			lo = append(lo, p)
		}
	}
	sort.Slice(hi, func(i, j int) bool { return l.Label(hi[i]) < l.Label(hi[j]) })
	sort.Slice(lo, func(i, j int) bool { return l.Label(lo[i]) > l.Label(lo[j]) })

	// Assign each high destination to the interval [l(v_i), l(v_{i+1})).
	// Destinations below l(v_1) cannot exist: v_1 is the Hamilton-path
	// successor with label l0+1.
	assign := func(group, vs []topology.NodeID, higher bool) map[topology.NodeID][]topology.NodeID {
		out := make(map[topology.NodeID][]topology.NodeID)
		for _, d := range group {
			ld := l.Label(d)
			chosen := vs[0]
			for _, v := range vs {
				lv := l.Label(v)
				if higher && lv <= ld {
					chosen = v
				}
				if !higher && lv >= ld {
					chosen = v
				}
			}
			out[chosen] = append(out[chosen], d)
		}
		return out
	}
	emit := func(vs []topology.NodeID, groups map[topology.NodeID][]topology.NodeID) {
		for _, v := range vs {
			g := groups[v]
			if len(g) == 0 {
				continue
			}
			nodes := append([]topology.NodeID{k.Source}, routeThrough(t, l, v, g)...)
			s.Paths = append(s.Paths, PathRoute{Nodes: nodes, Dests: g})
		}
	}
	if len(dh) > 0 {
		if len(hi) == 0 {
			// Every up-link of the source is masked out; a single direct
			// path is the best this scheme can offer (the degraded router
			// validates or repairs it).
			s.Paths = append(s.Paths, PathRoute{Nodes: routeThrough(t, l, k.Source, dh), Dests: dh})
		} else {
			emit(hi, assign(dh, hi, true))
		}
	}
	if len(dl) > 0 {
		if len(lo) == 0 {
			s.Paths = append(s.Paths, PathRoute{Nodes: routeThrough(t, l, k.Source, dl), Dests: dl})
		} else {
			emit(lo, assign(dl, lo, false))
		}
	}
	return s
}
