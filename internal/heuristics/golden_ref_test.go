package heuristics

// This file pins the workspace-based kernels to the pre-workspace
// implementations: every ref* function below is the original map/slice
// implementation preserved verbatim (modulo renames), and the tests
// compare outputs on the worked examples of Chapter 5 plus randomized
// multicast sets per topology. The one intentional difference is KMB's
// Prim step: the original iterated a Go map (nondeterministic tie-breaks
// among equal-weight closure edges), so refKMB determinizes it to
// insertion-order scanning with strict improvement — exactly the order
// Workspace.KMB uses.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/graphx"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// ---- sorted MP/MC reference ----

func refSortedMPPrepare(c *labeling.HamiltonCycle, k core.MulticastSet) []topology.NodeID {
	d := make([]topology.NodeID, len(k.Dests))
	copy(d, k.Dests)
	sort.Slice(d, func(i, j int) bool {
		return c.SortKey(k.Source, d[i]) < c.SortKey(k.Source, d[j])
	})
	return d
}

func refSortedMPStep(t topology.Topology, c *labeling.HamiltonCycle, u0 topology.NodeID,
	w topology.NodeID, dests []topology.NodeID) (next topology.NodeID, rest []topology.NodeID, done bool) {

	rest = dests
	if len(rest) > 0 && rest[0] == w {
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return 0, nil, true
	}
	fd := c.SortKey(u0, rest[0])
	var (
		best  topology.NodeID
		bestF = -1
	)
	var buf [32]topology.NodeID
	for _, p := range t.Neighbors(w, buf[:0]) {
		if fp := c.SortKey(u0, p); fp <= fd && fp > bestF {
			best, bestF = p, fp
		}
	}
	if bestF < 0 {
		panic("heuristics: sorted MP routing stuck")
	}
	return best, rest, false
}

func refSortedMP(t topology.Topology, c *labeling.HamiltonCycle, k core.MulticastSet) core.Path {
	dests := refSortedMPPrepare(c, k)
	w := k.Source
	path := core.Path{Nodes: []topology.NodeID{w}}
	for {
		next, rest, done := refSortedMPStep(t, c, k.Source, w, dests)
		if done {
			return path
		}
		dests = rest
		w = next
		path.Nodes = append(path.Nodes, w)
	}
}

func refSortedMC(t topology.Topology, c *labeling.HamiltonCycle, k core.MulticastSet) core.Cycle {
	p := refSortedMP(t, c, k)
	m := c.Len()
	u0 := k.Source
	keyBound := m + c.H(u0)
	key := func(x topology.NodeID) int {
		if x == u0 {
			return keyBound
		}
		return c.SortKey(u0, x)
	}
	w := p.Nodes[len(p.Nodes)-1]
	nodes := p.Nodes
	guard := 0
	for w != u0 {
		var (
			best  topology.NodeID
			bestF = -1
		)
		var buf [32]topology.NodeID
		for _, q := range t.Neighbors(w, buf[:0]) {
			if fq := key(q); fq <= keyBound && fq > bestF {
				best, bestF = q, fq
			}
		}
		w = best
		if w != u0 {
			nodes = append(nodes, w)
		}
		if guard++; guard > m+1 {
			panic("heuristics: sorted MC failed to close")
		}
	}
	return core.Cycle{Nodes: nodes}
}

// ---- greedy ST reference ----

type refSTTree struct {
	edges [][2]topology.NodeID
	nodes map[topology.NodeID]bool
}

func (tr *refSTTree) addEdge(a, b topology.NodeID) {
	if tr.nodes == nil {
		tr.nodes = make(map[topology.NodeID]bool)
	}
	tr.edges = append(tr.edges, [2]topology.NodeID{a, b})
	tr.nodes[a] = true
	tr.nodes[b] = true
}

func (tr *refSTTree) contains(v topology.NodeID) bool { return tr.nodes[v] }

func (tr *refSTTree) adjacency(v topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	for _, e := range tr.edges {
		if e[0] == v {
			out = append(out, e[1])
		} else if e[1] == v {
			out = append(out, e[0])
		}
	}
	return out
}

func (tr *refSTTree) subtreeNodes(start, parent topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	var rec func(v, from topology.NodeID)
	rec = func(v, from topology.NodeID) {
		out = append(out, v)
		for _, w := range tr.adjacency(v) {
			if w != from {
				rec(w, v)
			}
		}
	}
	rec(start, parent)
	return out
}

func refGreedySTPrepare(t topology.Topology, k core.MulticastSet) []topology.NodeID {
	d := make([]topology.NodeID, len(k.Dests))
	copy(d, k.Dests)
	sort.SliceStable(d, func(i, j int) bool {
		di := t.Distance(k.Source, d[i])
		dj := t.Distance(k.Source, d[j])
		if di != dj {
			return di < dj
		}
		return d[i] < d[j]
	})
	return d
}

func refGreedyBuild(t RegionTopology, tr *refSTTree, u topology.NodeID, dests []topology.NodeID) {
	tr.addEdge(u, dests[0])
	for i := 1; i < len(dests); i++ {
		ui := dests[i]
		if tr.contains(ui) {
			continue
		}
		var (
			bestV    topology.NodeID
			bestEdge int
			bestD    = -1
		)
		for ei, e := range tr.edges {
			v := t.NearestOnShortestPaths(e[0], e[1], ui)
			if d := t.Distance(ui, v); bestD < 0 || d < bestD {
				bestV, bestEdge, bestD = v, ei, d
			}
		}
		e := tr.edges[bestEdge]
		if bestV != e[0] && bestV != e[1] {
			tr.edges[bestEdge] = [2]topology.NodeID{e[0], bestV}
			tr.addEdge(bestV, e[1])
		}
		if ui != bestV {
			tr.addEdge(bestV, ui)
		}
	}
}

func refGreedySTSplit(t RegionTopology, u topology.NodeID, dests []topology.NodeID) [][]topology.NodeID {
	tr := &refSTTree{}
	refGreedyBuild(t, tr, u, dests)
	var out [][]topology.NodeID
	for _, r := range tr.adjacency(u) {
		sub := tr.subtreeNodes(r, u)
		list := []topology.NodeID{r}
		inSub := make(map[topology.NodeID]bool, len(sub))
		for _, v := range sub {
			inSub[v] = true
		}
		for _, d := range dests {
			if d != r && inSub[d] {
				list = append(list, d)
			}
		}
		out = append(out, list)
	}
	return out
}

func refGreedySTCarried(t RegionTopology, k core.MulticastSet) *STResult {
	return refGreedySTCarriedLog(t, k, nil)
}

// refGreedySTCarriedLog is refGreedySTCarried that, given a non-nil log,
// also appends its transmissions to *log in the order it makes them.
func refGreedySTCarriedLog(t RegionTopology, k core.MulticastSet, log *[][2]topology.NodeID) *STResult {
	res := newSTResult()
	dests := refGreedySTPrepare(t, k)
	destSet := k.DestSet()

	tr := &refSTTree{}
	refGreedyBuild(t, tr, k.Source, dests)

	if destSet[k.Source] {
		res.Delivered[k.Source] = 0
	}
	type visit struct {
		node   topology.NodeID
		parent topology.NodeID
		depth  int
	}
	router, err := core.RouterFor(t)
	if err != nil {
		panic(err)
	}
	stack := []visit{{node: k.Source, parent: k.Source, depth: 0}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if destSet[cur.node] {
			if _, seen := res.Delivered[cur.node]; !seen {
				res.Delivered[cur.node] = cur.depth
			}
		}
		for _, next := range tr.adjacency(cur.node) {
			if next == cur.parent {
				continue
			}
			p := core.UnicastPath(router, cur.node, next)
			for i := 1; i < len(p); i++ {
				res.send(p[i-1], p[i])
				if log != nil {
					*log = append(*log, [2]topology.NodeID{p[i-1], p[i]})
				}
			}
			stack = append(stack, visit{node: next, parent: cur.node, depth: cur.depth + len(p) - 1})
		}
	}
	return res
}

func refGreedyST(t RegionTopology, k core.MulticastSet) *STResult {
	return refGreedySTLog(t, k, nil)
}

// refGreedySTLog is refGreedyST that, given a non-nil log, also appends
// its transmissions to *log in the order it makes them.
func refGreedySTLog(t RegionTopology, k core.MulticastSet, log *[][2]topology.NodeID) *STResult {
	router, err := core.RouterFor(t)
	if err != nil {
		panic(err)
	}
	res := newSTResult()
	destSet := k.DestSet()

	type message struct {
		at    topology.NodeID
		depth int
		list  []topology.NodeID
	}
	queue := []message{{at: k.Source, depth: 0, list: append([]topology.NodeID{k.Source}, refGreedySTPrepare(t, k)...)}}
	for len(queue) > 0 {
		msg := queue[0]
		queue = queue[1:]
		u := msg.list[0]
		if msg.at != u {
			next := router.NextHopUnicast(msg.at, u)
			res.send(msg.at, next)
			if log != nil {
				*log = append(*log, [2]topology.NodeID{msg.at, next})
			}
			queue = append(queue, message{at: next, depth: msg.depth + 1, list: msg.list})
			continue
		}
		if destSet[u] {
			if _, seen := res.Delivered[u]; !seen {
				res.Delivered[u] = msg.depth
			}
		}
		rest := msg.list[1:]
		if len(rest) == 0 {
			continue
		}
		for _, sub := range refGreedySTSplit(t, u, rest) {
			r := sub[0]
			next := router.NextHopUnicast(u, r)
			res.send(u, next)
			if log != nil {
				*log = append(*log, [2]topology.NodeID{u, next})
			}
			queue = append(queue, message{at: next, depth: msg.depth + 1, list: sub})
		}
	}
	return res
}

// ---- MT references ----

func refXFirstMT(m *topology.Mesh2D, k core.MulticastSet) *STResult {
	res := newSTResult()
	destSet := k.DestSet()

	type message struct {
		at    topology.NodeID
		depth int
		dests []topology.NodeID
	}
	queue := []message{{at: k.Source, depth: 0, dests: k.Dests}}
	for len(queue) > 0 {
		msg := queue[0]
		queue = queue[1:]
		x0, y0 := m.XY(msg.at)
		var dPlusX, dMinusX, dPlusY, dMinusY []topology.NodeID
		for _, d := range msg.dests {
			x, y := m.XY(d)
			switch {
			case x > x0:
				dPlusX = append(dPlusX, d)
			case x < x0:
				dMinusX = append(dMinusX, d)
			case y > y0:
				dPlusY = append(dPlusY, d)
			case y < y0:
				dMinusY = append(dMinusY, d)
			default:
				if destSet[d] {
					if _, seen := res.Delivered[d]; !seen {
						res.Delivered[d] = msg.depth
					}
				}
			}
		}
		forward := func(dests []topology.NodeID, nx, ny int) {
			if len(dests) == 0 {
				return
			}
			next := m.ID(nx, ny)
			res.send(msg.at, next)
			queue = append(queue, message{at: next, depth: msg.depth + 1, dests: dests})
		}
		forward(dPlusX, x0+1, y0)
		forward(dMinusX, x0-1, y0)
		forward(dPlusY, x0, y0+1)
		forward(dMinusY, x0, y0-1)
	}
	return res
}

func refDividedGreedyMT(m *topology.Mesh2D, k core.MulticastSet) *STResult {
	res := newSTResult()
	destSet := k.DestSet()

	type message struct {
		at    topology.NodeID
		depth int
		axis  trunkAxis
		dests []topology.NodeID
	}
	var queue []message

	deliver := func(d topology.NodeID, depth int) {
		if destSet[d] {
			if _, seen := res.Delivered[d]; !seen {
				res.Delivered[d] = depth
			}
		}
	}
	forward := func(from topology.NodeID, depth int, axis trunkAxis, dests []topology.NodeID, nx, ny int) {
		if len(dests) == 0 {
			return
		}
		next := m.ID(nx, ny)
		res.send(from, next)
		queue = append(queue, message{at: next, depth: depth + 1, axis: axis, dests: dests})
	}

	x0, y0 := m.XY(k.Source)
	var dPlusX, dMinusX, dPlusY, dMinusY []topology.NodeID
	var sx, sy [4][]topology.NodeID
	for _, d := range k.Dests {
		x, y := m.XY(d)
		dx, dy := x-x0, y-y0
		switch {
		case dx == 0 && dy == 0:
			deliver(d, 0)
		case dy == 0 && dx > 0:
			dPlusX = append(dPlusX, d)
		case dy == 0 && dx < 0:
			dMinusX = append(dMinusX, d)
		case dx == 0 && dy > 0:
			dPlusY = append(dPlusY, d)
		case dx == 0 && dy < 0:
			dMinusY = append(dMinusY, d)
		default:
			var q int
			switch {
			case dx > 0 && dy > 0:
				q = 0
			case dx < 0 && dy > 0:
				q = 1
			case dx < 0 && dy < 0:
				q = 2
			default:
				q = 3
			}
			if abs(dx) >= abs(dy) {
				sx[q] = append(sx[q], d)
			} else {
				sy[q] = append(sy[q], d)
			}
		}
	}
	pairX := func(a, b int) []topology.NodeID {
		switch {
		case len(sx[a]) > 0 && len(sx[b]) > 0:
			return append(append([]topology.NodeID{}, sx[a]...), sx[b]...)
		case len(sx[a]) > 0:
			sy[a] = append(sy[a], sx[a]...)
			return nil
		case len(sx[b]) > 0:
			sy[b] = append(sy[b], sx[b]...)
			return nil
		default:
			return nil
		}
	}
	dPlusX = append(dPlusX, pairX(0, 3)...)
	dMinusX = append(dMinusX, pairX(1, 2)...)
	dPlusY = append(append(dPlusY, sy[0]...), sy[1]...)
	dMinusY = append(append(dMinusY, sy[2]...), sy[3]...)
	forward(k.Source, 0, trunkX, dPlusX, x0+1, y0)
	forward(k.Source, 0, trunkX, dMinusX, x0-1, y0)
	forward(k.Source, 0, trunkY, dPlusY, x0, y0+1)
	forward(k.Source, 0, trunkY, dMinusY, x0, y0-1)

	for len(queue) > 0 {
		msg := queue[0]
		queue = queue[1:]
		cx, cy := m.XY(msg.at)
		var onward, crossPlus, crossMinus []topology.NodeID
		for _, d := range msg.dests {
			x, y := m.XY(d)
			if msg.axis == trunkX {
				switch {
				case x == cx && y == cy:
					deliver(d, msg.depth)
				case x == cx && y > cy:
					crossPlus = append(crossPlus, d)
				case x == cx && y < cy:
					crossMinus = append(crossMinus, d)
				default:
					onward = append(onward, d)
				}
			} else {
				switch {
				case x == cx && y == cy:
					deliver(d, msg.depth)
				case y == cy && x > cx:
					crossPlus = append(crossPlus, d)
				case y == cy && x < cx:
					crossMinus = append(crossMinus, d)
				default:
					onward = append(onward, d)
				}
			}
		}
		if msg.axis == trunkX {
			forward(msg.at, msg.depth, trunkY, crossPlus, cx, cy+1)
			forward(msg.at, msg.depth, trunkY, crossMinus, cx, cy-1)
			if len(onward) > 0 {
				ox, _ := m.XY(onward[0])
				if ox > cx {
					forward(msg.at, msg.depth, trunkX, onward, cx+1, cy)
				} else {
					forward(msg.at, msg.depth, trunkX, onward, cx-1, cy)
				}
			}
		} else {
			forward(msg.at, msg.depth, trunkX, crossPlus, cx+1, cy)
			forward(msg.at, msg.depth, trunkX, crossMinus, cx-1, cy)
			if len(onward) > 0 {
				_, oy := m.XY(onward[0])
				if oy > cy {
					forward(msg.at, msg.depth, trunkY, onward, cx, cy+1)
				} else {
					forward(msg.at, msg.depth, trunkY, onward, cx, cy-1)
				}
			}
		}
	}
	return res
}

func refXYZFirstMT(m *topology.Mesh3D, k core.MulticastSet) *STResult {
	res := newSTResult()
	destSet := k.DestSet()

	type message struct {
		at    topology.NodeID
		depth int
		dests []topology.NodeID
	}
	queue := []message{{at: k.Source, depth: 0, dests: k.Dests}}
	for len(queue) > 0 {
		msg := queue[0]
		queue = queue[1:]
		x0, y0, z0 := m.XYZ(msg.at)
		var buckets [6][]topology.NodeID
		for _, d := range msg.dests {
			x, y, z := m.XYZ(d)
			switch {
			case x > x0:
				buckets[0] = append(buckets[0], d)
			case x < x0:
				buckets[1] = append(buckets[1], d)
			case y > y0:
				buckets[2] = append(buckets[2], d)
			case y < y0:
				buckets[3] = append(buckets[3], d)
			case z > z0:
				buckets[4] = append(buckets[4], d)
			case z < z0:
				buckets[5] = append(buckets[5], d)
			default:
				if destSet[d] {
					if _, seen := res.Delivered[d]; !seen {
						res.Delivered[d] = msg.depth
					}
				}
			}
		}
		hops := [6]topology.NodeID{}
		if x0 < m.Width-1 {
			hops[0] = m.ID(x0+1, y0, z0)
		}
		if x0 > 0 {
			hops[1] = m.ID(x0-1, y0, z0)
		}
		if y0 < m.Height-1 {
			hops[2] = m.ID(x0, y0+1, z0)
		}
		if y0 > 0 {
			hops[3] = m.ID(x0, y0-1, z0)
		}
		if z0 < m.Depth-1 {
			hops[4] = m.ID(x0, y0, z0+1)
		}
		if z0 > 0 {
			hops[5] = m.ID(x0, y0, z0-1)
		}
		for i, dests := range buckets {
			if len(dests) == 0 {
				continue
			}
			res.send(msg.at, hops[i])
			queue = append(queue, message{at: hops[i], depth: msg.depth + 1, dests: dests})
		}
	}
	return res
}

// ---- LEN reference ----

func refLEN(h *topology.Hypercube, k core.MulticastSet) *STResult {
	res := newSTResult()
	destSet := k.DestSet()

	type message struct {
		at    topology.NodeID
		depth int
		dests []topology.NodeID
	}
	queue := []message{{at: k.Source, depth: 0, dests: k.Dests}}
	for len(queue) > 0 {
		msg := queue[0]
		queue = queue[1:]
		u := msg.at
		remaining := make([]topology.NodeID, 0, len(msg.dests))
		for _, d := range msg.dests {
			if d == u {
				if destSet[d] {
					if _, seen := res.Delivered[d]; !seen {
						res.Delivered[d] = msg.depth
					}
				}
				continue
			}
			remaining = append(remaining, d)
		}
		for len(remaining) > 0 {
			bestDim, bestCount := -1, 0
			for b := 0; b < h.Dim; b++ {
				count := 0
				for _, d := range remaining {
					if (u^d)>>b&1 == 1 {
						count++
					}
				}
				if count > bestCount {
					bestDim, bestCount = b, count
				}
			}
			next := u ^ topology.NodeID(1<<bestDim)
			var sub, rest []topology.NodeID
			for _, d := range remaining {
				if (u^d)>>bestDim&1 == 1 {
					sub = append(sub, d)
				} else {
					rest = append(rest, d)
				}
			}
			res.send(u, next)
			queue = append(queue, message{at: next, depth: msg.depth + 1, dests: sub})
			remaining = rest
		}
	}
	return res
}

// ---- KMB reference (Prim step determinized, rest verbatim) ----

func refKMB(g *graphx.Graph, terminals []int) [][2]int {
	if len(terminals) == 0 {
		return nil
	}
	if len(terminals) == 1 {
		return [][2]int{}
	}
	dist := make(map[int][]int, len(terminals))
	for _, t := range terminals {
		dist[t] = g.BFSDistances(t)
	}
	type cedge struct{ u, v int }
	inTree := map[int]bool{terminals[0]: true}
	inOrder := []int{terminals[0]} // insertion order, replacing map iteration
	var closure []cedge
	for len(inTree) < len(terminals) {
		best := cedge{-1, -1}
		bestD := -1
		for _, t := range inOrder {
			for _, s := range terminals {
				if inTree[s] {
					continue
				}
				if d := dist[t][s]; d >= 0 && (bestD < 0 || d < bestD) {
					best, bestD = cedge{t, s}, d
				}
			}
		}
		if best.u < 0 {
			panic("heuristics: KMB terminals not connected")
		}
		closure = append(closure, best)
		inTree[best.v] = true
		inOrder = append(inOrder, best.v)
	}
	type uedge [2]int
	sub := make(map[uedge]bool)
	for _, ce := range closure {
		p := g.ShortestPath(ce.u, ce.v)
		for i := 1; i < len(p); i++ {
			a, b := p[i-1], p[i]
			if a > b {
				a, b = b, a
			}
			sub[uedge{a, b}] = true
		}
	}
	adj := make(map[int][]int)
	for e := range sub {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, l := range adj {
		sort.Ints(l)
	}
	parent := map[int]int{terminals[0]: -1}
	queue := []int{terminals[0]}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if _, seen := parent[v]; !seen {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	tree := make(map[uedge]bool)
	deg := make(map[int]int)
	for v, p := range parent {
		if p < 0 {
			continue
		}
		a, b := v, p
		if a > b {
			a, b = b, a
		}
		tree[uedge{a, b}] = true
		deg[a]++
		deg[b]++
	}
	isTerminal := make(map[int]bool, len(terminals))
	for _, t := range terminals {
		isTerminal[t] = true
	}
	for {
		removed := false
		for e := range tree {
			for _, end := range []int{e[0], e[1]} {
				if deg[end] == 1 && !isTerminal[end] {
					delete(tree, e)
					deg[e[0]]--
					deg[e[1]]--
					removed = true
					break
				}
			}
			if removed {
				break
			}
		}
		if !removed {
			break
		}
	}
	out := make([][2]int, 0, len(tree))
	for e := range tree {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ---- comparison helpers and tests ----

func sameST(t *testing.T, name string, got, want *STResult) {
	t.Helper()
	if got.Links != want.Links {
		t.Fatalf("%s: links %d, want %d", name, got.Links, want.Links)
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatalf("%s: edge multiset diverged\n got %v\nwant %v", name, got.Edges, want.Edges)
	}
	if !reflect.DeepEqual(got.Delivered, want.Delivered) {
		t.Fatalf("%s: delivery depths diverged\n got %v\nwant %v", name, got.Delivered, want.Delivered)
	}
}

// sameGreedyST runs both greedy ST kernels on ws and requires each to
// match its reference: the traffic, the routing pattern, and every
// transmission in the reference's order.
func sameGreedyST(t *testing.T, ws *Workspace, rt RegionTopology, k core.MulticastSet) {
	t.Helper()
	for _, v := range []struct {
		name string
		run  func(RegionTopology, core.MulticastSet) int
		ref  func(RegionTopology, core.MulticastSet, *[][2]topology.NodeID) *STResult
	}{
		{"greedy ST", ws.GreedyST, refGreedySTLog},
		{"greedy ST carried", ws.GreedySTCarried, refGreedySTCarriedLog},
	} {
		name := rt.Name() + " " + v.name
		var sends [][2]topology.NodeID
		want := v.ref(rt, k, &sends)
		if got := v.run(rt, k); got != want.Links {
			t.Fatalf("%s: links %d, want %d", name, got, want.Links)
		}
		sameST(t, name, ws.stResult(), want)
		if !slices.Equal(ws.edges, sends) {
			t.Fatalf("%s: transmissions in order\n got %v\nwant %v", name, ws.edges, sends)
		}
	}
}

func randomGolden(tb testing.TB, rng *stats.Rand, t topology.Topology, maxK int) core.MulticastSet {
	k := 1 + rng.Intn(maxK)
	src := topology.NodeID(rng.Intn(t.Nodes()))
	raw := rng.Sample(t.Nodes(), k, int(src))
	dests := make([]topology.NodeID, k)
	for i, v := range raw {
		dests[i] = topology.NodeID(v)
	}
	set, err := core.NewMulticastSet(t, src, dests)
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

func goldenTrials(t *testing.T) int {
	if testing.Short() {
		return 100
	}
	return 1000
}

// TestGoldenWorkedExamples pins the Chapter 5 worked examples (the sets
// of Figs. 5.7–5.12) to the reference implementations.
func TestGoldenWorkedExamples(t *testing.T) {
	m44 := topology.NewMesh2D(4, 4)
	c44, err := labeling.MeshHamiltonCycle(m44)
	if err != nil {
		t.Fatal(err)
	}
	k57 := core.MustMulticastSet(m44, 9, []topology.NodeID{0, 1, 6, 12})
	if got, want := SortedMP(m44, c44, k57), refSortedMP(m44, c44, k57); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig 5.7 sorted MP: %v, want %v", got.Nodes, want.Nodes)
	}
	if got, want := SortedMC(m44, c44, k57), refSortedMC(m44, c44, k57); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig 5.7 sorted MC: %v, want %v", got.Nodes, want.Nodes)
	}

	m88 := topology.NewMesh2D(8, 8)
	k59 := core.MustMulticastSet(m88, m88.ID(2, 7), []topology.NodeID{
		m88.ID(0, 5), m88.ID(2, 3), m88.ID(4, 1), m88.ID(6, 3), m88.ID(7, 4)})
	sameST(t, "Fig 5.9 greedy ST", GreedyST(m88, k59), refGreedyST(m88, k59))
	sameST(t, "Fig 5.9 greedy ST carried", GreedySTCarried(m88, k59), refGreedySTCarried(m88, k59))

	h6 := topology.NewHypercube(6)
	k510 := core.MustMulticastSet(h6, 0b000110,
		[]topology.NodeID{0b010101, 0b000001, 0b001101, 0b101001, 0b110001})
	sameST(t, "Fig 5.10 greedy ST", GreedyST(h6, k510), refGreedyST(h6, k510))
	sameST(t, "Fig 5.10 LEN", LEN(h6, k510), refLEN(h6, k510))

	m66 := topology.NewMesh2D(6, 6)
	kmt := core.MustMulticastSet(m66, m66.ID(3, 2), []topology.NodeID{
		m66.ID(2, 0), m66.ID(3, 0), m66.ID(4, 0), m66.ID(1, 1), m66.ID(5, 1),
		m66.ID(0, 2), m66.ID(1, 3), m66.ID(2, 5), m66.ID(3, 5), m66.ID(5, 5)})
	sameST(t, "Fig 5.11 X-first", XFirstMT(m66, kmt), refXFirstMT(m66, kmt))
	sameST(t, "Fig 5.12 divided greedy", DividedGreedyMT(m66, kmt), refDividedGreedyMT(m66, kmt))
}

// TestGoldenRandomMesh compares every mesh kernel against its reference
// on randomized sets, driving the workspace methods through one reused
// workspace (the exported wrappers pool-share anyway; reusing one
// instance across differing calls and meshes is the harsher test).
// Beside the 16x16 mesh, non-square and one-row meshes catch a
// coordinate taken against the wrong dimension, and the 8x8 mesh draws
// dense sets, up to every node but the source. Sorted MP and MC run
// where the mesh has a Hamilton cycle, which a one-row mesh lacks.
func TestGoldenRandomMesh(t *testing.T) {
	ws := NewWorkspace()
	for _, tc := range []struct {
		w, h, maxK int
		seed       uint64
	}{
		{16, 16, 40, 7},
		{12, 5, 59, 31},
		{5, 12, 59, 37},
		{1, 9, 8, 41},
		{9, 1, 8, 43},
		{8, 8, 63, 47},
	} {
		m := topology.NewMesh2D(tc.w, tc.h)
		var c *labeling.HamiltonCycle
		if tc.w > 1 && tc.h > 1 {
			var err error
			if c, err = labeling.MeshHamiltonCycle(m); err != nil {
				t.Fatal(err)
			}
		}
		rng := stats.NewRand(tc.seed)
		for trial := 0; trial < goldenTrials(t); trial++ {
			set := randomGolden(t, rng, m, tc.maxK)

			if c != nil {
				wantP := refSortedMP(m, c, set)
				if got := ws.SortedMP(m, c, set); got != wantP.Traffic() {
					t.Fatalf("%s trial %d: sorted MP traffic %d, want %d", m.Name(), trial, got, wantP.Traffic())
				}
				if gotP := SortedMP(m, c, set); !reflect.DeepEqual(gotP, wantP) {
					t.Fatalf("%s trial %d: sorted MP path %v, want %v", m.Name(), trial, gotP.Nodes, wantP.Nodes)
				}
				if gotC, wantC := SortedMC(m, c, set), refSortedMC(m, c, set); !reflect.DeepEqual(gotC, wantC) {
					t.Fatalf("%s trial %d: sorted MC %v, want %v", m.Name(), trial, gotC.Nodes, wantC.Nodes)
				}
				if got, want := SortedMPPrepare(c, set), refSortedMPPrepare(c, set); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d: MP prepare %v, want %v", m.Name(), trial, got, want)
				}
			}
			if got, want := GreedySTPrepare(m, set), refGreedySTPrepare(m, set); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: ST prepare %v, want %v", m.Name(), trial, got, want)
			}
			sameGreedyST(t, ws, m, set)
			sameST(t, m.Name()+" X-first", XFirstMT(m, set), refXFirstMT(m, set))
			sameST(t, m.Name()+" divided greedy", DividedGreedyMT(m, set), refDividedGreedyMT(m, set))
		}
	}
}

// TestGoldenRandomCube covers the hypercube kernels, including LEN, on
// the 10-cube and, with dense sets up to every node but the source, on
// the 6-cube.
func TestGoldenRandomCube(t *testing.T) {
	ws := NewWorkspace()
	for _, tc := range []struct {
		dim, maxK int
		seed      uint64
	}{
		{10, 50, 11},
		{6, 63, 53},
	} {
		h := topology.NewHypercube(tc.dim)
		c, err := labeling.CubeHamiltonCycle(h)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(tc.seed)
		for trial := 0; trial < goldenTrials(t); trial++ {
			set := randomGolden(t, rng, h, tc.maxK)

			if gotP, wantP := SortedMP(h, c, set), refSortedMP(h, c, set); !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("%s trial %d: sorted MP %v, want %v", h.Name(), trial, gotP.Nodes, wantP.Nodes)
			}
			if gotC, wantC := SortedMC(h, c, set), refSortedMC(h, c, set); !reflect.DeepEqual(gotC, wantC) {
				t.Fatalf("%s trial %d: sorted MC %v, want %v", h.Name(), trial, gotC.Nodes, wantC.Nodes)
			}

			want := refLEN(h, set)
			if got := ws.LEN(h, set); got != want.Links {
				t.Fatalf("%s trial %d: LEN links %d, want %d", h.Name(), trial, got, want.Links)
			}
			sameST(t, h.Name()+" LEN", ws.stResult(), want)
			sameGreedyST(t, ws, h, set)
		}
	}
}

// TestGoldenRandomMesh3D covers the XYZ-first kernel, and greedy ST on
// a topology it searches through the ShortestRegion interface, with
// dense sets on the 4x3x5 mesh.
func TestGoldenRandomMesh3D(t *testing.T) {
	ws := NewWorkspace()
	for _, tc := range []struct {
		x, y, z, maxK int
		seed          uint64
	}{
		{4, 4, 4, 20, 13},
		{4, 3, 5, 59, 59},
	} {
		m := topology.NewMesh3D(tc.x, tc.y, tc.z)
		rng := stats.NewRand(tc.seed)
		for trial := 0; trial < goldenTrials(t); trial++ {
			set := randomGolden(t, rng, m, tc.maxK)
			sameST(t, m.Name()+" XYZ-first", XYZFirstMT(m, set), refXYZFirstMT(m, set))
			sameGreedyST(t, ws, m, set)
		}
	}
}

// TestGoldenKMB compares the dense KMB against the determinized
// reference on random terminal sets over mesh and hypercube host graphs.
func TestGoldenKMB(t *testing.T) {
	hosts := []struct {
		name string
		t    topology.Topology
	}{
		{"mesh8x8", topology.NewMesh2D(8, 8)},
		{"cube6", topology.NewHypercube(6)},
	}
	trials := goldenTrials(t) / 4
	for _, host := range hosts {
		g := TopologyGraph(host.t)
		rng := stats.NewRand(17)
		ws := NewWorkspace()
		for trial := 0; trial < trials; trial++ {
			terminals := rng.Sample(host.t.Nodes(), 2+rng.Intn(12))
			want := refKMB(g, terminals)
			got := KMB(g, terminals)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: KMB %v, want %v", host.name, trial, got, want)
			}
			if n := ws.KMB(g, terminals); n != len(want) {
				t.Fatalf("%s trial %d: ws.KMB %d edges, want %d", host.name, trial, n, len(want))
			}
		}
	}
}

// TestWorkspaceReuse runs mixed kernels across different topologies on a
// single workspace twice over and checks the second pass reproduces the
// first — stale state from any call must not leak into the next. Then
// the greedy ST kernels, on that workspace, must reject a destination
// outside a smaller topology with the topology's own panic.
func TestWorkspaceReuse(t *testing.T) {
	m := topology.NewMesh2D(16, 16)
	h := topology.NewHypercube(8)
	c, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		t.Fatal(err)
	}
	g := TopologyGraph(topology.NewMesh2D(8, 8))
	rng := stats.NewRand(23)
	sets := make([]core.MulticastSet, 32)
	cubeSets := make([]core.MulticastSet, 32)
	terms := make([][]int, 32)
	for i := range sets {
		sets[i] = randomGolden(t, rng, m, 30)
		cubeSets[i] = randomGolden(t, rng, h, 30)
		terms[i] = rng.Sample(64, 2+rng.Intn(10))
	}
	ws := NewWorkspace()
	run := func() []int {
		var out []int
		for i := range sets {
			out = append(out,
				ws.SortedMP(m, c, sets[i]),
				ws.GreedyST(m, sets[i]),
				ws.GreedySTCarried(m, sets[i]),
				ws.XFirstMT(m, sets[i]),
				ws.DividedGreedyMT(m, sets[i]),
				ws.LEN(h, cubeSets[i]),
				ws.GreedyST(h, cubeSets[i]),
				ws.KMB(g, terms[i]),
			)
		}
		return out
	}
	first := run()
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("workspace reuse diverged:\n first %v\nsecond %v", first, second)
	}

	// The workspace's arrays now fit larger topologies than these, so
	// only the topology's own check can reject a node outside them.
	for _, tc := range []struct {
		topo RegionTopology
		dest topology.NodeID
		want string
	}{
		{topology.NewMesh2D(7, 7), 60, "topology: node 60 out of range for 7x7 mesh with 49 nodes"},
		{topology.NewHypercube(5), 40, "topology: node 40 out of range for 5-cube with 32 nodes"},
		// Past the last 64-node word of the destination bitset.
		{topology.NewMesh2D(7, 7), 100, "topology: node 100 out of range for 7x7 mesh with 49 nodes"},
		{topology.NewMesh2D(8, 8), 100, "topology: node 100 out of range for 8x8 mesh with 64 nodes"},
		{topology.NewHypercube(5), 100, "topology: node 100 out of range for 5-cube with 32 nodes"},
	} {
		set := core.MulticastSet{Source: 0, Dests: []topology.NodeID{1, tc.dest}}
		for _, kernel := range []struct {
			name string
			run  func()
		}{
			{"GreedyST", func() { ws.GreedyST(tc.topo, set) }},
			{"GreedySTCarried", func() { ws.GreedySTCarried(tc.topo, set) }},
		} {
			func() {
				defer func() {
					if got := fmt.Sprint(recover()); got != tc.want {
						t.Errorf("%s on %s with destination %d: panic %q, want %q",
							kernel.name, tc.topo.Name(), tc.dest, got, tc.want)
					}
				}()
				kernel.run()
			}()
		}
	}
}
