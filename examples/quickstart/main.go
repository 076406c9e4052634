// Quickstart: route one multicast with every algorithm of the library on
// an 8x8 mesh, compare traffic and distance, and run a short dynamic
// wormhole simulation.
package main

import (
	"fmt"
	"log"

	"multicastnet"
)

func main() {
	// An 8x8 wormhole-routed mesh multicomputer with its canonical
	// boustrophedon Hamiltonian labeling.
	sys, err := multicastnet.NewMeshSystem(8, 8)
	if err != nil {
		log.Fatal(err)
	}

	// Node 27 multicasts to five destinations.
	k, err := sys.Set(27, 4, 18, 35, 49, 62)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multicast: source %d -> %v on %s\n\n", k.Source, k.Dests, sys.Topology().Name())

	// Chapter 5 heuristics: one path, or a Steiner/multicast tree.
	mp, err := sys.SortedMP(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sorted MP       %2d channels  path %v\n", mp.Traffic(), mp.Nodes)

	st, err := sys.GreedyST(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy ST       %2d channels  max depth %d\n", st.Links, st.MaxDepth())

	xf, err := sys.XFirstMT(k)
	if err != nil {
		log.Fatal(err)
	}
	dg, err := sys.DividedGreedyMT(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("X-first MT      %2d channels\n", xf.Links)
	fmt.Printf("divided greedy  %2d channels\n", dg.Links)

	// Chapter 6 deadlock-free wormhole schemes, picked by registry name.
	for _, scheme := range []string{"dual-path", "multi-path", "fixed-path"} {
		plan, err := sys.Route(scheme, k, multicastnet.RouterOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s %2d channels  max distance %2d  (deadlock-free)\n",
			scheme, plan.Traffic(), plan.MaxDistance())
	}
	fmt.Printf("baseline        %2d channels  (multiple one-to-one)\n\n",
		sys.MultiUnicastTraffic(k))

	// Deadlock freedom is checkable, not just asserted: the routing
	// function's complete channel dependency graph is acyclic.
	if err := sys.VerifyDeadlockFree(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("channel dependency graph: acyclic (deadlock-free)")

	// A short dynamic simulation: every node multicasts to 10 average
	// destinations every ~300 us; dual-path routing carries the traffic.
	route, err := sys.RouteFunc("dual-path", multicastnet.RouterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := multicastnet.Simulate(multicastnet.SimConfig{
		Topology:               sys.Topology(),
		Route:                  route,
		MeanInterarrivalMicros: 300,
		AvgDests:               10,
		Seed:                   42,
		WarmupDeliveries:       500,
		BatchSize:              500,
		MaxCycles:              500_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndynamic run: %d multicasts, %d deliveries, avg latency %.1f us (±%.1f), deadlocked=%v\n",
		res.MulticastsSent, res.Deliveries, res.AvgLatencyMicros, res.CIHalfWidthMicros, res.Deadlocked)
}
