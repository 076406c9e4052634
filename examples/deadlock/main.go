// Deadlock demonstration — Chapter 6's opening argument, executed.
//
// Part 1 replays Fig. 6.1: two nCUBE-2 style lock-step broadcast trees
// from adjacent nodes of a 3-cube acquire channels the other needs and
// block forever; the channel dependency graph shows the cycle.
//
// Part 2 replays Fig. 6.4: the same effect for two X-first tree
// multicasts on a 4x3 mesh, routed by the registry's naive-tree scheme.
//
// Part 3 runs the SAME workloads under the dissertation's deadlock-free
// schemes — the registry's tree (double-channel X-first) and dual-path
// schemes — and watches them drain.
//
// This example reaches into the internal packages on purpose: it
// demonstrates the unsafe schemes, which the public API does not offer.
package main

import (
	"fmt"
	"log"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

const messageFlits = 128

// plans routes each multicast set under the named registry scheme.
func plans(st *routing.State, scheme string, sets ...core.MulticastSet) []routing.Plan {
	r, err := routing.New(scheme, st)
	if err != nil {
		log.Fatal(err)
	}
	out := make([]routing.Plan, len(sets))
	for i, k := range sets {
		out[i] = r.PlanSet(k)
	}
	return out
}

// run puts the worms of each plan, flattened over t's channels, on a
// fresh network over t and steps it until it empties or stalls; it
// reports whether the workload completed.
func run(t topology.Topology, plans ...routing.Plan) (n *wormsim.Network, drained bool) {
	n = wormsim.NewNetwork(t)
	for _, p := range plans {
		n.InjectFlatTag(routing.Flatten(t, p), messageFlits, 0)
	}
	var lastProgress int64
	for n.ActiveWorms() > 0 {
		if n.Step() {
			lastProgress = n.Cycle()
		} else if n.DetectDeadlock() != nil || n.Cycle()-lastProgress > 10_000 {
			return n, false
		}
	}
	return n, true
}

func main() {
	// --- Part 1: Fig. 6.1 on a 3-cube -------------------------------
	cube := topology.NewHypercube(3)
	fmt.Println("Fig 6.1 — two lock-step broadcast trees on a 3-cube (nodes 000 and 001):")

	rec := dfr.NewDependencyRecorder()
	t0 := dfr.ECubeBroadcastTree(cube, 0b000)
	t1 := dfr.ECubeBroadcastTree(cube, 0b001)
	rec.AddTree(t0)
	rec.AddTree(t1)
	fmt.Printf("  channel dependency cycle: %v\n", rec.FindCycle())

	net, drained := run(cube, routing.Plan{Trees: []dfr.TreeRoute{t0}}, routing.Plan{Trees: []dfr.TreeRoute{t1}})
	if drained {
		log.Fatal("expected the broadcasts to deadlock")
	}
	fmt.Printf("  simulator: blocked forever after cycle %d with %d worms stuck\n\n",
		net.Cycle(), net.ActiveWorms())

	// --- Part 2: Fig. 6.4 on a 4x3 mesh ------------------------------
	mesh := topology.NewMesh2D(4, 3)
	st, err := routing.NewState(mesh)
	if err != nil {
		log.Fatal(err)
	}
	id := func(x, y int) topology.NodeID { return mesh.ID(x, y) }
	m0 := core.MustMulticastSet(mesh, id(1, 1), []topology.NodeID{id(0, 2), id(3, 1)})
	m1 := core.MustMulticastSet(mesh, id(2, 1), []topology.NodeID{id(0, 1), id(3, 0)})
	fmt.Println("Fig 6.4 — two X-first tree multicasts on a 4x3 mesh:")
	fmt.Printf("  M0: src (1,1) -> (0,2),(3,1);  M1: src (2,1) -> (0,1),(3,0)\n")

	naive := plans(st, "naive-tree", m0, m1)
	rec = dfr.NewDependencyRecorder()
	for _, p := range naive {
		for _, tr := range p.Trees {
			rec.AddTree(tr)
		}
	}
	fmt.Printf("  channel dependency cycle: %v\n", rec.FindCycle())

	net2, drained := run(mesh, naive...)
	if drained {
		log.Fatal("expected the multicasts to deadlock")
	}
	fmt.Printf("  simulator: blocked forever after cycle %d\n\n", net2.Cycle())

	// --- Part 3: the deadlock-free schemes on the same workload ------
	fmt.Println("Chapter 6 fixes, same two multicasts:")

	safeTree, drained := run(mesh, plans(st, "tree", m0, m1)...)
	if !drained {
		log.Fatal("double-channel X-first should not deadlock")
	}
	fmt.Printf("  double-channel X-first tree: drained in %d cycles\n", safeTree.Cycle())

	safePath, drained := run(mesh, plans(st, "dual-path", m0, m1)...)
	if !drained {
		log.Fatal("dual-path should not deadlock")
	}
	fmt.Printf("  dual-path routing:           drained in %d cycles\n", safePath.Cycle())
}
