// Collectives: the system-supported multicast service of Section 8.2.
//
// An application allocates a process group on a 16x16 mesh machine and
// runs the primitives an iterative solver needs — barrier, broadcast, and
// allreduce — first as closed-form cost estimates, then executed on the
// wormhole simulator to expose the contention the estimates cannot see
// (the convergecast pile-up at a barrier coordinator).
package main

import (
	"fmt"
	"log"

	"multicastnet"
)

func main() {
	mesh := multicastnet.NewMesh2D(16, 16)
	svc, err := multicastnet.NewService(multicastnet.ServiceConfig{
		Topology:   mesh,
		SchemeName: "dual-path",
	})
	if err != nil {
		log.Fatal(err)
	}

	// A 32-process group spread over the machine (every 8th node).
	var members []multicastnet.NodeID
	for v := multicastnet.NodeID(0); int(v) < mesh.Nodes(); v += 8 {
		members = append(members, v)
	}
	g, err := svc.NewGroup(members)
	if err != nil {
		log.Fatal(err)
	}
	coord := g.Members()[0]
	fmt.Printf("group of %d processes on a %s, coordinator node %d\n\n", g.Size(), mesh.Name(), coord)

	// Closed-form costs (contention-free wormhole pipeline).
	mc, err := svc.Multicast(coord, g, 128)
	if err != nil {
		log.Fatal(err)
	}
	bar, err := svc.Barrier(coord, g, 8)
	if err != nil {
		log.Fatal(err)
	}
	ar, err := svc.ReduceBroadcast(coord, g, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("primitive    traffic  messages  est. latency")
	fmt.Printf("multicast    %7d  %8d  %9.2f us\n", mc.TrafficChannels, mc.Messages, mc.LatencyMicros)
	fmt.Printf("barrier      %7d  %8d  %9.2f us\n", bar.TrafficChannels, bar.Messages, bar.LatencyMicros)
	fmt.Printf("allreduce    %7d  %8d  %9.2f us\n", ar.TrafficChannels, ar.Messages, ar.LatencyMicros)

	// The same protocols executed on the simulated network: the gather
	// phase of the barrier piles 31 tokens onto the coordinator's
	// incoming channels, which the estimate cannot see.
	simMC, err := svc.SimulateMulticast(coord, g, 128)
	if err != nil {
		log.Fatal(err)
	}
	simBar, err := svc.SimulateBarrier(coord, g, 8)
	if err != nil {
		log.Fatal(err)
	}
	simAR, err := svc.SimulateAllReduce(coord, g, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprimitive    simulated (phases)")
	fmt.Printf("multicast    %6.2f us\n", simMC.CompletionMicros)
	fmt.Printf("barrier      %6.2f us (gather %.2f + release %.2f)\n",
		simBar.CompletionMicros, simBar.Phases[0], simBar.Phases[1])
	fmt.Printf("allreduce    %6.2f us (reduce %.2f + broadcast %.2f)\n",
		simAR.CompletionMicros, simAR.Phases[0], simAR.Phases[1])

	fmt.Printf("\nconvergecast contention: simulated barrier runs %.1fx the contention-free estimate\n",
		simBar.CompletionMicros/bar.LatencyMicros)
}
