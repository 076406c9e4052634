// Deadlock demonstration — Chapter 6's opening argument, executed.
//
// Part 1 replays Fig. 6.1: two nCUBE-2 style lock-step broadcast trees
// from adjacent nodes of a 3-cube acquire channels the other needs and
// block forever; the channel dependency graph shows the cycle.
//
// Part 2 replays Fig. 6.4: the same effect for two X-first tree
// multicasts on a 4x3 mesh.
//
// Part 3 runs the SAME workloads under the dissertation's deadlock-free
// schemes — the double-channel X-first tree and dual-path routing — and
// watches them drain.
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

// inject flattens one multicast's routes and puts its worms on n.
func inject(n *wormsim.Network, p routing.Plan) {
	n.InjectFlatTag(routing.Flatten(p), messageFlits, 0)
}

// drains steps the network until it empties or stalls; it reports whether
// the workload completed.
func drains(n *wormsim.Network) bool {
	var lastProgress int64
	for n.ActiveWorms() > 0 {
		if n.Step() {
			lastProgress = n.Cycle()
		} else if n.DetectDeadlock() != nil || n.Cycle()-lastProgress > 10_000 {
			return false
		}
	}
	return true
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

	net := wormsim.NewNetwork(cube)
	inject(net, routing.Plan{Trees: []dfr.TreeRoute{t0}})
	inject(net, routing.Plan{Trees: []dfr.TreeRoute{t1}})
	if drains(net) {
		log.Fatal("expected the broadcasts to deadlock")
	}
	fmt.Printf("  simulator: blocked forever after cycle %d with %d worms stuck\n\n",
		net.Cycle(), net.ActiveWorms())

	// --- Part 2: Fig. 6.4 on a 4x3 mesh ------------------------------
	mesh := topology.NewMesh2D(4, 3)
	id := func(x, y int) topology.NodeID { return mesh.ID(x, y) }
	m0 := core.MustMulticastSet(mesh, id(1, 1), []topology.NodeID{id(0, 2), id(3, 1)})
	m1 := core.MustMulticastSet(mesh, id(2, 1), []topology.NodeID{id(0, 1), id(3, 0)})
	fmt.Println("Fig 6.4 — two X-first tree multicasts on a 4x3 mesh:")
	fmt.Printf("  M0: src (1,1) -> (0,2),(3,1);  M1: src (2,1) -> (0,1),(3,0)\n")

	naive := dfr.NaiveTreeCDG(mesh, []core.MulticastSet{m0, m1})
	fmt.Printf("  channel dependency cycle: %v\n", naive.FindCycle())

	net2 := wormsim.NewNetwork(mesh)
	inject(net2, routing.Plan{Trees: dfr.XFirstTrees(mesh, m0)})
	inject(net2, routing.Plan{Trees: dfr.XFirstTrees(mesh, m1)})
	if drains(net2) {
		log.Fatal("expected the multicasts to deadlock")
	}
	fmt.Printf("  simulator: blocked forever after cycle %d\n\n", net2.Cycle())

	// --- Part 3: the deadlock-free schemes on the same workload ------
	fmt.Println("Chapter 6 fixes, same two multicasts:")

	safeTree := wormsim.NewNetwork(mesh)
	inject(safeTree, routing.Plan{Trees: dfr.DoubleChannelXFirst(mesh, m0)})
	inject(safeTree, routing.Plan{Trees: dfr.DoubleChannelXFirst(mesh, m1)})
	if !drains(safeTree) {
		log.Fatal("double-channel X-first should not deadlock")
	}
	fmt.Printf("  double-channel X-first tree: drained in %d cycles\n", safeTree.Cycle())

	l, err := core.LabelingFor(mesh)
	if err != nil {
		log.Fatal(err)
	}
	safePath := wormsim.NewNetwork(mesh)
	inject(safePath, routing.Plan{Paths: dfr.DualPath(mesh, l, m0).Paths})
	inject(safePath, routing.Plan{Paths: dfr.DualPath(mesh, l, m1).Paths})
	if !drains(safePath) {
		log.Fatal("dual-path should not deadlock")
	}
	fmt.Printf("  dual-path routing:           drained in %d cycles\n", safePath.Cycle())
}
