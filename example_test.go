package multicastnet_test

import (
	"fmt"
	"log"

	"multicastnet"
)

// ExampleSystem_SortedMP reproduces the dissertation's Fig. 5.7: the
// sorted multicast path on a 4x4 mesh from node 9.
func ExampleSystem_SortedMP() {
	sys, err := multicastnet.NewMeshSystem(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	k, err := sys.Set(9, 0, 1, 6, 12)
	if err != nil {
		log.Fatal(err)
	}
	p, err := sys.SortedMP(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.Nodes, "traffic:", p.Traffic())
	// Output: [9 13 12 8 4 0 1 2 6] traffic: 8
}

// ExampleSystem_Route reproduces Fig. 6.13: deadlock-free dual-path
// routing on a 6x6 mesh uses 33 channels (18 high, 15 low).
func ExampleSystem_Route() {
	sys, err := multicastnet.NewMeshSystem(6, 6)
	if err != nil {
		log.Fatal(err)
	}
	mesh := sys.Topology().(*multicastnet.Mesh2D)
	id := func(x, y int) multicastnet.NodeID { return mesh.ID(x, y) }
	k, err := sys.Set(id(3, 2),
		id(0, 0), id(0, 2), id(0, 5), id(1, 3), id(4, 5),
		id(5, 0), id(5, 1), id(5, 3), id(5, 4))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := sys.Route("dual-path", k, multicastnet.RouterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d paths, %d channels, max distance %d\n",
		len(plan.Paths), plan.Traffic(), plan.MaxDistance())
	// Output: 2 paths, 33 channels, max distance 18
}

// ExampleSystem_VerifyDeadlockFree shows the checkable deadlock-freedom
// property: the routing function's complete channel dependency graph is
// acyclic.
func ExampleSystem_VerifyDeadlockFree() {
	sys, err := multicastnet.NewCubeSystem(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys.VerifyDeadlockFree() == nil)
	// Output: true
}

// ExampleNewService prices a barrier on the Section 8.2 multicast
// service.
func ExampleNewService() {
	svc, err := multicastnet.NewService(multicastnet.ServiceConfig{
		Topology:   multicastnet.NewMesh2D(8, 8),
		SchemeName: "dual-path",
	})
	if err != nil {
		log.Fatal(err)
	}
	g, err := svc.NewGroup([]multicastnet.NodeID{0, 7, 56, 63})
	if err != nil {
		log.Fatal(err)
	}
	cost, err := svc.Barrier(0, g, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("barrier: %d messages, %d channel transmissions\n",
		cost.Messages, cost.TrafficChannels)
	// Output: barrier: 4 messages, 49 channel transmissions
}
