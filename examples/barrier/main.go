// Barrier synchronization on a hypercube — the Section 1.2 motivation
// [17]: in iterative numerical algorithms every process must wait for all
// others at the end of each step. With multicast support, a barrier is a
// gather to a coordinator followed by ONE release multicast to the
// participants, instead of p-1 separate unicasts.
//
// This example compares the release phase implemented three ways on a
// 6-cube — multiple one-to-one, the LEN multicast tree, and the
// deadlock-free dual-path scheme — for barriers over nested subcubes, and
// then simulates repeated barrier rounds to measure the release latency
// under wormhole contention.
package main

import (
	"fmt"
	"log"

	"multicastnet"
)

func main() {
	const dim = 6
	sys, err := multicastnet.NewCubeSystem(dim)
	if err != nil {
		log.Fatal(err)
	}
	cube := sys.Topology().(*multicastnet.Hypercube)

	fmt.Printf("barrier release on a %s, coordinator node 0\n\n", cube.Name())
	fmt.Println("participants  one-to-one  LEN-tree  dual-path (ch / max hops)")

	// Barriers over subcubes of growing size: the release multicast goes
	// to every participant except the coordinator.
	for sub := 2; sub <= dim; sub++ {
		n := 1 << sub
		dests := make([]multicastnet.NodeID, 0, n-1)
		for v := 1; v < n; v++ {
			dests = append(dests, multicastnet.NodeID(v))
		}
		k, err := sys.Set(0, dests...)
		if err != nil {
			log.Fatal(err)
		}
		lenTree, err := sys.LEN(k)
		if err != nil {
			log.Fatal(err)
		}
		dual := sys.DualPath(k)
		fmt.Printf("%12d  %10d  %8d  %d / %d\n",
			n, sys.MultiUnicastTraffic(k), lenTree.Links, dual.Traffic(), dual.MaxDistance())
	}

	// The lock-step broadcast tree the nCUBE-2 used is NOT deadlock-free
	// (Fig. 6.1): two simultaneous full-cube barriers from adjacent
	// coordinators can block forever. The path-based release cannot.
	fmt.Println("\nsimulating concurrent barrier rounds (all nodes fire releases)...")
	dualRoute, err := sys.RouteFunc("dual-path", multicastnet.RouterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := multicastnet.Simulate(multicastnet.SimConfig{
		Topology:               cube,
		Route:                  dualRoute,
		MeanInterarrivalMicros: 250,
		AvgDests:               16,
		MessageBytes:           16, // a release token is small
		Seed:                   11,
		WarmupDeliveries:       500,
		BatchSize:              500,
		MaxCycles:              400_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dual-path release: avg latency %.2f us (±%.2f), %d deliveries, deadlocked=%v\n",
		res.AvgLatencyMicros, res.CIHalfWidthMicros, res.Deliveries, res.Deadlocked)

	multiRoute, err := sys.RouteFunc("multi-path", multicastnet.RouterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res2, err := multicastnet.Simulate(multicastnet.SimConfig{
		Topology:               cube,
		Route:                  multiRoute,
		MeanInterarrivalMicros: 250,
		AvgDests:               16,
		MessageBytes:           16,
		Seed:                   11,
		WarmupDeliveries:       500,
		BatchSize:              500,
		MaxCycles:              400_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-path release: avg latency %.2f us (±%.2f), %d deliveries, deadlocked=%v\n",
		res2.AvgLatencyMicros, res2.CIHalfWidthMicros, res2.Deliveries, res2.Deadlocked)
}
