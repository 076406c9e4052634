package dfr

import (
	"multicastnet/internal/core"
	"multicastnet/internal/graphx"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// ChannelIndexer assigns dense integer ids to channels so channel
// dependency graphs can be built over them: a ChanIndex that also keeps
// the channel of every id.
type ChannelIndexer struct {
	idx  ChanIndex
	list []Channel
}

// NewChannelIndexer returns an empty indexer.
func NewChannelIndexer() *ChannelIndexer { return &ChannelIndexer{} }

// ID returns the dense id for c, allocating one on first use.
func (x *ChannelIndexer) ID(c Channel) int {
	id := int(x.idx.Intern(c))
	if id == len(x.list) {
		x.list = append(x.list, c)
	}
	return id
}

// Len returns the number of channels indexed so far.
func (x *ChannelIndexer) Len() int { return len(x.list) }

// Channel returns the channel with dense id i.
func (x *ChannelIndexer) Channel(i int) Channel { return x.list[i] }

// DependencyRecorder accumulates channel dependency edges observed along
// routes; Graph() materializes the channel dependency graph of
// Section 2.3.4 for acyclicity checking.
type DependencyRecorder struct {
	idx   *ChannelIndexer
	edges [][2]int
}

// NewDependencyRecorder returns an empty recorder.
func NewDependencyRecorder() *DependencyRecorder {
	return &DependencyRecorder{idx: NewChannelIndexer()}
}

// AddPath records the dependencies along one wormhole path: each channel
// depends on the next channel the header requests while holding it.
func (r *DependencyRecorder) AddPath(p PathRoute) {
	chans := p.Channels()
	for i := 1; i < len(chans); i++ {
		r.edges = append(r.edges, [2]int{r.idx.ID(chans[i-1]), r.idx.ID(chans[i])})
	}
}

// AddStar records all paths of a star.
func (r *DependencyRecorder) AddStar(s Star) {
	for _, p := range s.Paths {
		r.AddPath(p)
	}
}

// AddTree records the dependencies of a lock-step tree. Because all
// branches of a tree-routed multicast advance together (Section 6.1:
// "all of the required channels must be available before transmission on
// any of them may take place"), a message holding any tree channel waits
// on every not-yet-acquired channel of the whole tree — not only its own
// branch. Channels are acquired level by level, so every channel at depth
// i depends on every tree channel at depth j > i, across branches. This
// is what turns the two broadcasts of Fig. 6.1 (and the two X-first
// multicasts of Fig. 6.4) into a dependency cycle.
func (r *DependencyRecorder) AddTree(t TreeRoute) {
	depth := t.Depths()
	for _, c1 := range t.Edges {
		for _, c2 := range t.Edges {
			if depth[c1.To] < depth[c2.To] {
				r.edges = append(r.edges, [2]int{r.idx.ID(c1), r.idx.ID(c2)})
			}
		}
	}
}

// Graph materializes the accumulated channel dependency graph.
func (r *DependencyRecorder) Graph() *graphx.Digraph {
	g := graphx.NewDigraph(r.idx.Len())
	for _, e := range r.edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// FindCycle returns a channel cycle in the recorded dependencies, or nil
// when the dependency graph is acyclic (deadlock-free).
func (r *DependencyRecorder) FindCycle() []Channel {
	cyc := r.Graph().FindCycle()
	if cyc == nil {
		return nil
	}
	out := make([]Channel, len(cyc))
	for i, id := range cyc {
		out[i] = r.idx.Channel(id)
	}
	return out
}

// UnicastCDG builds the complete channel dependency graph of the routing
// function R over all source/destination pairs of a labeled topology.
// Because R is label-monotone, the graph is acyclic for every valid
// Hamiltonian labeling; the tests verify this exhaustively.
func UnicastCDG(t topology.Topology, l labeling.Labeling) *DependencyRecorder {
	r := NewDependencyRecorder()
	for u := topology.NodeID(0); int(u) < t.Nodes(); u++ {
		for v := topology.NodeID(0); int(v) < t.Nodes(); v++ {
			if u == v {
				continue
			}
			r.AddPath(PathRoute{Nodes: core.RoutePath(t, l, u, v)})
		}
	}
	return r
}

// XYUnicastCDG builds the channel dependency graph of X-first unicast
// routing on a mesh (Fig. 2.5) — acyclic, the classical result the
// chapter builds on.
func XYUnicastCDG(m *topology.Mesh2D) *DependencyRecorder {
	r := NewDependencyRecorder()
	router := core.XYRouter{Mesh: m}
	for u := topology.NodeID(0); int(u) < m.Nodes(); u++ {
		for v := topology.NodeID(0); int(v) < m.Nodes(); v++ {
			if u == v {
				continue
			}
			r.AddPath(PathRoute{Nodes: core.UnicastPath(router, u, v)})
		}
	}
	return r
}

// NaiveTreeCDG builds the dependency graph of single-channel X-first
// multicast trees over the given multicast sets, using the lock-step
// dependency rule. This is the unsafe extension of Section 6.1: with
// opposing multicasts the graph develops cycles (Fig. 6.4), which is how
// the tests demonstrate that the naive tree scheme is not deadlock-free.
func NaiveTreeCDG(m *topology.Mesh2D, sets []core.MulticastSet) *DependencyRecorder {
	r := NewDependencyRecorder()
	for _, k := range sets {
		for _, t := range XFirstTrees(m, k) {
			r.AddTree(t)
		}
	}
	return r
}

// XFirstTrees builds the X-first multicast tree of Fig. 6.3 on single
// channels (class 0 everywhere): the deadlock-prone extension of unicast
// XY routing to multicast, kept for demonstrating the Section 6.1
// deadlock in the simulator.
func XFirstTrees(m *topology.Mesh2D, k core.MulticastSet) []TreeRoute {
	tr := TreeRoute{Root: k.Source, Dests: k.Dests}
	type msg struct {
		at    topology.NodeID
		dests []topology.NodeID
	}
	queue := []msg{{at: k.Source, dests: k.Dests}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		x0, y0 := m.XY(cur.at)
		var px, mx, py, my []topology.NodeID
		for _, d := range cur.dests {
			x, y := m.XY(d)
			switch {
			case x > x0:
				px = append(px, d)
			case x < x0:
				mx = append(mx, d)
			case y > y0:
				py = append(py, d)
			case y < y0:
				my = append(my, d)
			}
		}
		forward := func(ds []topology.NodeID, nx, ny int) {
			if len(ds) == 0 {
				return
			}
			next := m.ID(nx, ny)
			tr.Edges = append(tr.Edges, Channel{From: cur.at, To: next})
			queue = append(queue, msg{at: next, dests: ds})
		}
		forward(px, x0+1, y0)
		forward(mx, x0-1, y0)
		forward(py, x0, y0+1)
		forward(my, x0, y0-1)
	}
	return []TreeRoute{tr}
}

// SubcubeTree builds the nCUBE-2's "special form of multicast in which
// the destination nodes form a subcube" (Section 6.1): the destinations
// are every node reachable from source by flipping bits inside mask, and
// the delivery tree is the binomial tree over the mask's dimensions. Like
// the full broadcast it is traffic-optimal for its destination set (a
// spanning tree of the subcube, 2^|mask| - 1 channels) — and, also like
// the full broadcast, not deadlock-free under lock-step wormhole
// semantics when subcubes of concurrent multicasts overlap.
func SubcubeTree(h *topology.Hypercube, source topology.NodeID, mask topology.NodeID) TreeRoute {
	if int64(mask) >= int64(h.Nodes()) {
		panic("dfr: subcube mask exceeds cube dimensions")
	}
	var dests []topology.NodeID
	// Enumerate the subcube: all subsets of mask applied to source.
	for sub := mask; ; sub = (sub - 1) & mask {
		if v := source ^ sub; v != source {
			dests = append(dests, v)
		}
		if sub == 0 {
			break
		}
	}
	tr := TreeRoute{Root: source, Dests: dests}
	type msg struct {
		at      topology.NodeID
		fromDim int
	}
	queue := []msg{{at: source, fromDim: -1}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for dim := cur.fromDim + 1; dim < h.Dim; dim++ {
			if mask>>dim&1 == 0 {
				continue
			}
			next := cur.at ^ topology.NodeID(1<<dim)
			tr.Edges = append(tr.Edges, Channel{From: cur.at, To: next})
			queue = append(queue, msg{at: next, fromDim: dim})
		}
	}
	return tr
}

// ECubeBroadcastTree builds the nCUBE-2 style broadcast tree of
// Section 6.1 on an n-cube: each path from the source to a node follows
// E-cube (lowest differing dimension first) routing, realized as the
// spanning binomial tree in which node u forwards along every dimension
// above its arrival dimension. Two such trees from adjacent sources
// produce the Fig. 6.1 deadlock cycle under lock-step dependencies.
func ECubeBroadcastTree(h *topology.Hypercube, source topology.NodeID) TreeRoute {
	var dests []topology.NodeID
	for v := topology.NodeID(0); int(v) < h.Nodes(); v++ {
		if v != source {
			dests = append(dests, v)
		}
	}
	tr := TreeRoute{Root: source, Dests: dests}
	type msg struct {
		at      topology.NodeID
		fromDim int
	}
	queue := []msg{{at: source, fromDim: -1}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for dim := cur.fromDim + 1; dim < h.Dim; dim++ {
			next := cur.at ^ topology.NodeID(1<<dim)
			tr.Edges = append(tr.Edges, Channel{From: cur.at, To: next})
			queue = append(queue, msg{at: next, fromDim: dim})
		}
	}
	return tr
}
