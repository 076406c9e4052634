// Package graphx provides the general graph machinery underlying the
// dissertation's constructions: undirected adjacency-list graphs, BFS,
// connectivity and tree checks, directed-cycle detection (used for channel
// dependency graphs, Section 2.3.4), grid graphs (Section 4.1), and
// exhaustive Hamilton path/cycle search for small instances (the
// NP-complete source problems of Chapter 4).
package graphx

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph over vertices 0..N-1.
type Graph struct {
	adj [][]int
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("graphx: negative vertex count")
	}
	return &Graph{adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// AddEdge inserts the undirected edge (u, v). Duplicate edges and
// self-loops are rejected with a panic: the host graphs of the paper are
// simple graphs, and a duplicate insertion indicates a construction bug.
// The duplicate scan costs O(deg); constructors that guarantee
// uniqueness by enumeration (lattices, topology converters) should use
// AddEdgeUnchecked, which keeps dense-graph construction O(V+E).
func (g *Graph) AddEdge(u, v int) {
	if g.HasEdge(u, v) {
		panic(fmt.Sprintf("graphx: duplicate edge (%d,%d)", u, v))
	}
	g.AddEdgeUnchecked(u, v)
}

// AddEdgeUnchecked inserts (u, v) in O(1), skipping the duplicate-edge
// scan of AddEdge. Self-loops and out-of-range vertices still panic.
// Callers are responsible for never inserting an edge twice: each edge
// of a simple graph must be added exactly once.
func (g *Graph) AddEdgeUnchecked(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graphx: self-loop at %d", u))
	}
	g.check(u)
	g.check(v)
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of v. The slice is owned by the
// graph and must not be modified.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.Neighbors(v)) }

// Edges returns the number of edges.
func (g *Graph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

func (g *Graph) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graphx: vertex %d out of range [0,%d)", v, len(g.adj)))
	}
}

// BFSDistances returns the distance from src to every vertex, with -1 for
// unreachable vertices. Hot paths that traverse repeatedly should hold a
// Scratch and call its BFS method instead; this convenience wrapper
// allocates the result slice per call.
func (g *Graph) BFSDistances(src int) []int {
	var s Scratch
	s.BFS(g, src)
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = s.Dist(i)
	}
	return dist
}

// ShortestPath returns one shortest path from src to dst as a vertex
// sequence (inclusive), or nil when dst is unreachable.
func (g *Graph) ShortestPath(src, dst int) []int {
	g.check(dst)
	dist := g.BFSDistances(src)
	if dist[dst] < 0 {
		return nil
	}
	path := make([]int, dist[dst]+1)
	path[dist[dst]] = dst
	cur := dst
	for d := dist[dst]; d > 0; d-- {
		for _, w := range g.adj[cur] {
			if dist[w] == d-1 {
				cur = w
				break
			}
		}
		path[d-1] = cur
	}
	return path
}

// Connected reports whether the graph is connected (vacuously true for
// n <= 1). Repeated connectivity checks should reuse a Scratch.
func (g *Graph) Connected() bool {
	var s Scratch
	return s.Connected(g)
}

// IsTree reports whether the graph is connected and acyclic.
func (g *Graph) IsTree() bool {
	return g.Connected() && g.Edges() == g.N()-1
}

// BFSLayers partitions the vertices reachable from src into layers
// A_0, A_1, ... where A_i holds the vertices at distance i (the
// breadth-first partition used by the Theorem 4.5 reduction).
func (g *Graph) BFSLayers(src int) [][]int {
	dist := g.BFSDistances(src)
	maxd := 0
	for _, d := range dist {
		if d > maxd {
			maxd = d
		}
	}
	layers := make([][]int, maxd+1)
	for v, d := range dist {
		if d >= 0 {
			layers[d] = append(layers[d], v)
		}
	}
	for _, l := range layers {
		sort.Ints(l)
	}
	return layers
}
