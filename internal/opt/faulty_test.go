package opt

import (
	"fmt"
	"testing"

	"multicastnet/internal/fault"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// TestKMBVsExactOnFaultyMeshes is the degraded-mode counterpart of
// TestKMBWithinBound: on small meshes with randomly failed links, the
// pooled KMB heuristic run over the masked graph must (a) cost at least
// the exact Dreyfus–Wagner Steiner length, (b) return only live masked
// edges, and (c) connect every terminal that is still reachable from the
// source — covering all reachable destinations, never routing through
// dead hardware.
func TestKMBVsExactOnFaultyMeshes(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	meshes := []topology.Topology{
		topology.NewMesh2D(3, 3),
		topology.NewMesh2D(4, 3),
		topology.NewMesh2D(4, 4),
	}
	for _, m := range meshes {
		nLinks := len(fault.EnumerateLinks(m))
		for trial := 0; trial < trials; trial++ {
			seed := stats.DeriveSeed(0xFA11, fmt.Sprintf("%s/%d", m.Name(), trial))
			rng := stats.NewRand(seed)
			events := fault.NewPlan(m, fault.Spec{
				Links: rng.Intn(nLinks/3 + 1),
				Seed:  stats.DeriveSeed(seed, "plan"),
			}).Events()
			var dead topology.GraphDelta
			for _, e := range events {
				dead.FailLinks = append(dead.FailLinks, topology.NormLink(e.A, e.B))
			}
			masked := topology.NewLiveMasked(m)
			masked.Apply(dead)

			// Source plus up to 5 destinations, keeping only the
			// terminals still connected to the source over the masked mesh.
			ids := rng.Sample(m.Nodes(), 2+rng.Intn(5))
			source := topology.NodeID(ids[0])
			terminals := []int{int(source)}
			for _, v := range ids[1:] {
				if masked.Reachable(source, topology.NodeID(v)) {
					terminals = append(terminals, v)
				}
			}
			if len(terminals) < 2 {
				continue
			}

			g := heuristics.TopologyGraph(masked)
			exact := SteinerTreeLength(g, terminals)
			ws := heuristics.AcquireWorkspace()
			cost := ws.KMB(g, terminals)
			heuristics.ReleaseWorkspace(ws)
			edges := heuristics.KMB(g, terminals)
			if cost != len(edges) {
				t.Fatalf("%s trial %d: pooled KMB cost %d != %d edges",
					m.Name(), trial, cost, len(edges))
			}
			if cost < exact {
				t.Fatalf("%s trial %d: KMB cost %d below exact Steiner length %d (terminals %v, %d faults)",
					m.Name(), trial, cost, exact, terminals, len(events))
			}
			if exact < 1 {
				t.Fatalf("%s trial %d: exact Steiner length %d for %d distinct terminals",
					m.Name(), trial, exact, len(terminals))
			}

			// Every tree edge must be a live masked edge, and the tree
			// must span all reachable terminals.
			adj := make(map[int][]int)
			for _, e := range edges {
				if !hasEdge(masked, e[0], e[1]) {
					t.Fatalf("%s trial %d: KMB edge (%d,%d) not in the masked mesh",
						m.Name(), trial, e[0], e[1])
				}
				adj[e[0]] = append(adj[e[0]], e[1])
				adj[e[1]] = append(adj[e[1]], e[0])
			}
			seen := map[int]bool{terminals[0]: true}
			queue := []int{terminals[0]}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, w := range adj[v] {
					if !seen[w] {
						seen[w] = true
						queue = append(queue, w)
					}
				}
			}
			for _, term := range terminals {
				if !seen[term] {
					t.Fatalf("%s trial %d: KMB tree does not cover reachable terminal %d (terminals %v)",
						m.Name(), trial, term, terminals)
				}
			}
		}
	}
}

// hasEdge reports whether (u, v) is an edge of t.
func hasEdge(t topology.Topology, u, v int) bool {
	for _, w := range t.Neighbors(topology.NodeID(u), nil) {
		if int(w) == v {
			return true
		}
	}
	return false
}
