// Package dfr implements the deadlock-free multicast wormhole routing
// schemes of Chapter 6: the tree-like double-channel X-first algorithm
// (Section 6.2.1) and the path-like dual-path, multi-path, and fixed-path
// algorithms (Sections 6.2.2 and 6.3), for both 2D mesh and hypercube
// topologies, together with channel dependency graph construction for
// verifying deadlock freedom (Section 2.3.4).
package dfr

import (
	"fmt"
	"slices"
	"sync"

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

// Workspace is the reusable scratch every path scheme writes its star
// into: the path list, the HighLowPartition array whose runs are the
// paths' Dests, one node buffer holding every row, R's neighbor buffer
// and the packed keys of the label sorts. A star a
// scheme method returns aliases them until the workspace's next call;
// Clone copies it out. Once the arrays have grown to the largest plan
// seen, a scheme call allocates nothing. A Workspace serves one
// goroutine at a time: AcquireWorkspace and ReleaseWorkspace lend pooled
// ones, and the exported scheme functions (DualPath, ...) return an
// owned clone of a pooled workspace's star.
type Workspace struct {
	paths []PathRoute
	part  []topology.NodeID
	nodes []topology.NodeID
	nbuf  []topology.NodeID
	keys  []uint64
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// AcquireWorkspace returns a pooled workspace; give it back with
// ReleaseWorkspace.
func AcquireWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// ReleaseWorkspace returns ws to the pool. The caller must not retain
// any star ws returned.
func ReleaseWorkspace(ws *Workspace) { wsPool.Put(ws) }

// oneShot runs one scheme call on a pooled workspace and returns its
// star's owned clone.
func oneShot(scheme func(ws *Workspace) Star) Star {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	return scheme(ws).Clone()
}

// begin starts a scheme call over t and l: it empties the star and
// splits k's destinations (HighLowPartition) into the workspace's
// partition array.
func (ws *Workspace) begin(t topology.Topology, l labeling.Labeling, k core.MulticastSet) (dh, dl []topology.NodeID) {
	ws.paths = ws.paths[:0]
	ws.nodes = ws.nodes[:0]
	if d := t.MaxDegree(); cap(ws.nbuf) < d {
		ws.nbuf = make([]topology.NodeID, 0, d)
	}
	ws.part = slices.Grow(ws.part[:0], len(k.Dests))[:len(k.Dests)]
	return ws.partition(ws.part, l, k)
}

// route appends the path from src through every destination of dests
// in order, routed by R (the message routing of Fig. 6.12 run to
// completion), in channel class class. When first != src, the row's
// first hop goes to first, a neighbor of src, and R routes on from
// there (the hypercube multi-path's hop to v_i).
func (ws *Workspace) route(t topology.Topology, l labeling.Labeling, src, first topology.NodeID, dests []topology.NodeID, class int) {
	start := len(ws.nodes)
	ws.nodes = append(ws.nodes, src)
	if first != src {
		ws.nodes = append(ws.nodes, first)
	}
	cur := first
	for _, d := range dests {
		if cur != d {
			ws.nodes = core.AppendRoute(t, l, cur, d, ws.nodes, ws.nbuf)
			cur = d
		}
	}
	ws.add(start, dests, class)
}

// add closes the row written from ws.nodes[start] as the next path,
// delivering dests. When a later row grows the node buffer, the rows
// before it keep the old array, which still holds them.
func (ws *Workspace) add(start int, dests []topology.NodeID, class int) {
	end := len(ws.nodes)
	ws.paths = append(ws.paths, PathRoute{Nodes: ws.nodes[start:end:end], Dests: dests, Class: class})
}

// star returns the star written since begin.
func (ws *Workspace) star(src topology.NodeID) Star { return Star{Source: src, Paths: ws.paths} }

// Clone returns a copy of s that shares no memory with it, in two
// allocations: the path list, and one array holding every path's nodes
// and destinations (plus one per path that has per-hop classes, which no
// scheme writes).
func (s Star) Clone() Star {
	n := 0
	for _, p := range s.Paths {
		n += len(p.Nodes) + len(p.Dests)
	}
	out := Star{Source: s.Source, Paths: make([]PathRoute, len(s.Paths))}
	buf := make([]topology.NodeID, n)
	for i, p := range s.Paths {
		out.Paths[i] = p
		out.Paths[i].Nodes, buf = cut(buf, p.Nodes)
		out.Paths[i].Dests, buf = cut(buf, p.Dests)
		out.Paths[i].Classes = slices.Clone(p.Classes)
	}
	return out
}

// cut copies src into the front of buf and returns the copy, capped at
// its length (nil for an empty src), and the rest of buf.
func cut(buf, src []topology.NodeID) ([]topology.NodeID, []topology.NodeID) {
	if len(src) == 0 {
		return nil, buf
	}
	n := copy(buf, src)
	return buf[:n:n], buf[n:]
}

// HighLowPartition is the message preparation of the dual-path algorithm
// (Fig. 6.11): split the destinations into D_H (labels above the source,
// ascending) and D_L (labels below, descending). Both halves share one
// array of len(k.Dests) entries; D_H's capacity ends where D_L begins,
// so appending to either copies it. An empty half is nil.
func HighLowPartition(l labeling.Labeling, k core.MulticastSet) (dh, dl []topology.NodeID) {
	var ws Workspace // for its sort keys alone
	return ws.partition(make([]topology.NodeID, len(k.Dests)), l, k)
}

// partition is HighLowPartition into buf, which has len(k.Dests)
// entries.
func (ws *Workspace) partition(buf []topology.NodeID, l labeling.Labeling, k core.MulticastSet) (dh, dl []topology.NodeID) {
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
		ws.sortByLabel(l, dh, false)
	}
	if lo < len(buf) {
		dl = buf[lo:]
		ws.sortByLabel(l, dl, true)
	}
	return dh, dl
}

// sortByLabel sorts ns by ascending label, or descending when desc, as
// label<<32 | node keys in the workspace's key scratch, complementing
// the label for descending order. Labels are distinct, so the order is
// the comparator sort's.
func (ws *Workspace) sortByLabel(l labeling.Labeling, ns []topology.NodeID, desc bool) {
	keys := ws.keys[:0]
	for _, v := range ns {
		lab := uint32(l.Label(v))
		if desc {
			lab = ^lab
		}
		keys = append(keys, uint64(lab)<<32|uint64(uint32(v)))
	}
	slices.Sort(keys)
	for i, key := range keys {
		ns[i] = topology.NodeID(uint32(key))
	}
	ws.keys = keys
}

// DualPath runs the dual-path multicast routing algorithm (Figs. 6.11 and
// 6.12): at most two label-monotone paths, one through the high-channel
// network and one through the low-channel network. Each subnetwork is
// acyclic, so the scheme is deadlock-free (Assertion 2, Corollary 6.1).
func DualPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet) Star {
	return oneShot(func(ws *Workspace) Star { return ws.DualPath(t, l, k) })
}

// DualPath is DualPath written into ws.
func (ws *Workspace) DualPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet) Star {
	dh, dl := ws.begin(t, l, k)
	for _, g := range [2][]topology.NodeID{dh, dl} {
		if len(g) > 0 {
			ws.route(t, l, k.Source, k.Source, g, 0)
		}
	}
	return ws.star(k.Source)
}

// FixedPath runs the fixed-path routing of Section 6.2.2 [49]: the upper
// path follows the Hamiltonian path node by node up to the
// highest-labeled destination; the lower path walks down to the
// lowest-labeled one. Trivial to implement in hardware, at the cost of
// visiting every intermediate label.
func FixedPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet) Star {
	return oneShot(func(ws *Workspace) Star { return ws.FixedPath(t, l, k) })
}

// FixedPath is FixedPath written into ws.
func (ws *Workspace) FixedPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet) Star {
	dh, dl := ws.begin(t, l, k)
	l0 := l.Label(k.Source)
	for i, g := range [2][]topology.NodeID{dh, dl} {
		if len(g) == 0 {
			continue
		}
		start, end, step := len(ws.nodes), l.Label(g[len(g)-1]), 1
		if i == 1 {
			step = -1
		}
		for lab := l0; lab != end+step; lab += step {
			ws.nodes = append(ws.nodes, l.At(lab))
		}
		ws.add(start, g, 0)
	}
	return ws.star(k.Source)
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
	return oneShot(func(ws *Workspace) Star { return ws.MultiPathMeshOn(t, m, l, k) })
}

// MultiPathMeshOn is MultiPathMeshOn written into ws.
func (ws *Workspace) MultiPathMeshOn(t topology.Topology, m *topology.Mesh2D, l labeling.Labeling, k core.MulticastSet) Star {
	dh, dl := ws.begin(t, l, k)
	// The x of the source's horizontal neighbor on the high and on the low
	// side of the labeling, or x0 when that side has none.
	x0, y0 := m.XY(k.Source)
	l0 := l.Label(k.Source)
	hx := [2]int{x0, x0}
	for _, p := range t.Neighbors(k.Source, ws.nbuf[:0]) {
		if px, py := m.XY(p); py == y0 {
			if l.Label(p) > l0 {
				hx[0] = px
			} else {
				hx[1] = px
			}
		}
	}
	// Each half splits in place into the destinations on its horizontal
	// neighbor's side of the source column, then the rest, each part in
	// label order.
	for i, half := range [2][]topology.NodeID{dh, dl} {
		n := len(half)
		if x := hx[i]; x != x0 {
			n = stablePartition(half, func(d topology.NodeID) bool {
				dx, _ := m.XY(d)
				return (x > x0 && dx >= x) || (x < x0 && dx <= x)
			})
		}
		for _, g := range [2][]topology.NodeID{half[:n:n], half[n:]} {
			if len(g) > 0 {
				ws.route(t, l, k.Source, k.Source, g, 0)
			}
		}
	}
	return ws.star(k.Source)
}

// stablePartition reorders ds so that the entries first accepts come
// before the others, each part keeping its order, and returns the size
// of the first part. It partitions each half and rotates the middle into
// place: O(n log n) moves and no allocation.
func stablePartition(ds []topology.NodeID, first func(topology.NodeID) bool) int {
	switch {
	case len(ds) == 0:
		return 0
	case len(ds) == 1 && first(ds[0]):
		return 1
	case len(ds) == 1:
		return 0
	}
	mid := len(ds) / 2
	a := stablePartition(ds[:mid], first)
	b := stablePartition(ds[mid:], first)
	// ds is A1 A2 B1 B2 (1: accepted); make it A1 B1 A2 B2.
	mixed := ds[a : mid+b]
	slices.Reverse(mixed[:mid-a])
	slices.Reverse(mixed[mid-a:])
	slices.Reverse(mixed)
	return a + b
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
	return oneShot(func(ws *Workspace) Star { return ws.MultiPathCubeOn(t, h, l, k) })
}

// MultiPathCubeOn is MultiPathCubeOn written into ws.
func (ws *Workspace) MultiPathCubeOn(t topology.Topology, h *topology.Hypercube, l labeling.Labeling, k core.MulticastSet) Star {
	dh, dl := ws.begin(t, l, k)
	// The source's neighbors: v_1 < ... < v_d above its label (hi), and
	// those below it in descending label order (lo).
	l0 := l.Label(k.Source)
	var vsBuf [32]topology.NodeID
	vs := append(vsBuf[:0], t.Neighbors(k.Source, ws.nbuf[:0])...)
	nh := stablePartition(vs, func(p topology.NodeID) bool { return l.Label(p) > l0 })
	hi, lo := vs[:nh], vs[nh:]
	ws.sortByLabel(l, hi, false)
	ws.sortByLabel(l, lo, true)

	// At most one path per neighbor on each side, or one direct path.
	for i, group := range [2][]topology.NodeID{dh, dl} {
		// dir orients labels so that vs and group ascend.
		vs, dir := hi, 1
		if i == 1 {
			vs, dir = lo, -1
		}
		switch {
		case len(group) == 0:
		case len(vs) == 0:
			// Every link of the source on this side is masked out; a
			// single direct path is the best this scheme can offer (the
			// degraded router validates or repairs it).
			ws.route(t, l, k.Source, k.Source, group, 0)
		default:
			// D_i = {w : l(v_i) <= l(w) < l(v_{i+1})}, mirrored below the
			// source. The group is in the label order of vs, so each D_i
			// is a run of it, and the runs come in the order of vs. A
			// destination before v_1 (possible only when a mask removed
			// the Hamilton-path neighbor) joins D_1.
			vi, start := 0, 0
			for j := 0; j <= len(group); j++ {
				next := vi
				if j < len(group) {
					ld := dir * l.Label(group[j])
					for next+1 < len(vs) && dir*l.Label(vs[next+1]) <= ld {
						next++
					}
				}
				if j == len(group) || next != vi {
					if g := group[start:j:j]; len(g) > 0 {
						ws.route(t, l, k.Source, vs[vi], g, 0)
					}
					vi, start = next, j
				}
			}
		}
	}
	return ws.star(k.Source)
}
