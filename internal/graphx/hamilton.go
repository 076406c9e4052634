package graphx

// Exhaustive Hamilton path/cycle search. The Hamilton problems on grid
// graphs are the NP-complete sources of every Chapter 4 reduction; these
// brute-force solvers make the reductions executable and testable on small
// instances.

// HamiltonPathFrom returns a Hamilton path starting at src, or nil when
// none exists. Exponential time: intended for small graphs (n <= ~20).
func (g *Graph) HamiltonPathFrom(src int) []int {
	g.check(src)
	return g.hamiltonSearch(src, -1, false)
}

// HamiltonPathBetween returns a Hamilton path from src to dst (the
// (G, s, t) problem of result G2), or nil.
func (g *Graph) HamiltonPathBetween(src, dst int) []int {
	g.check(src)
	g.check(dst)
	if src == dst {
		if g.N() == 1 {
			return []int{src}
		}
		return nil
	}
	return g.hamiltonSearch(src, dst, false)
}

// HamiltonCycle returns a Hamilton cycle as a vertex sequence with the
// first vertex repeated at the end, or nil when none exists.
func (g *Graph) HamiltonCycle() []int {
	if g.N() == 0 {
		return nil
	}
	if g.N() == 1 {
		return nil // a single vertex has no cycle in a simple graph
	}
	if p := g.hamiltonSearch(0, -1, true); p != nil {
		return append(p, p[0])
	}
	return nil
}

// hamiltonSearch performs backtracking search for a Hamilton path from src.
// When dst >= 0 the path must end at dst; when cycle is true the last
// vertex must additionally be adjacent to src.
func (g *Graph) hamiltonSearch(src, dst int, cycle bool) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	visited := make([]bool, n)
	path := make([]int, 0, n)
	path = append(path, src)
	visited[src] = true

	var rec func() []int
	rec = func() []int {
		if len(path) == n {
			last := path[len(path)-1]
			if dst >= 0 && last != dst {
				return nil
			}
			if cycle && !g.HasEdge(last, src) {
				return nil
			}
			out := make([]int, n)
			copy(out, path)
			return out
		}
		u := path[len(path)-1]
		for _, v := range g.adj[u] {
			if visited[v] {
				continue
			}
			if dst >= 0 && v == dst && len(path) != n-1 {
				continue // reaching dst early strands the rest
			}
			visited[v] = true
			path = append(path, v)
			if out := rec(); out != nil {
				return out
			}
			path = path[:len(path)-1]
			visited[v] = false
		}
		return nil
	}
	return rec()
}

// IsHamiltonPath reports whether seq is a Hamilton path of g: it visits
// every vertex exactly once along edges of g.
func (g *Graph) IsHamiltonPath(seq []int) bool {
	if len(seq) != g.N() {
		return false
	}
	seen := make([]bool, g.N())
	for i, v := range seq {
		if v < 0 || v >= g.N() || seen[v] {
			return false
		}
		seen[v] = true
		if i > 0 && !g.HasEdge(seq[i-1], v) {
			return false
		}
	}
	return true
}

// IsHamiltonCycle reports whether seq (with the first vertex repeated at
// the end) is a Hamilton cycle of g.
func (g *Graph) IsHamiltonCycle(seq []int) bool {
	if len(seq) != g.N()+1 || g.N() < 3 {
		return false
	}
	if seq[0] != seq[len(seq)-1] {
		return false
	}
	return g.IsHamiltonPath(seq[:len(seq)-1]) && g.HasEdge(seq[len(seq)-2], seq[0])
}
