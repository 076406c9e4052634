package multicastnet_test

import (
	"testing"

	"multicastnet"
)

func TestMeshSystemEndToEnd(t *testing.T) {
	sys, err := multicastnet.NewMeshSystem(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sys.Set(27, 4, 18, 35, 49, 62)
	if err != nil {
		t.Fatal(err)
	}

	mp, err := sys.SortedMP(k)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Traffic() <= 0 {
		t.Error("empty sorted MP")
	}
	mc, err := sys.SortedMC(k)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Traffic() <= mp.Traffic() {
		t.Error("cycle should cost more than path")
	}

	st, err := sys.GreedyST(k)
	if err != nil {
		t.Fatal(err)
	}
	xf, err := sys.XFirstMT(k)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := sys.DividedGreedyMT(k)
	if err != nil {
		t.Fatal(err)
	}
	uni := sys.MultiUnicastTraffic(k)
	for name, links := range map[string]int{"greedy ST": st.Links, "X-first": xf.Links, "divided greedy": dg.Links} {
		if links <= 0 || links > uni {
			t.Errorf("%s traffic %d out of range (multi-unicast %d)", name, links, uni)
		}
	}

	dual := sys.DualPath(k)
	multi, err := sys.MultiPath(k)
	if err != nil {
		t.Fatal(err)
	}
	fixed := sys.FixedPath(k)
	if dual.Traffic() <= 0 || multi.Traffic() <= 0 || fixed.Traffic() < dual.Traffic() {
		t.Errorf("path traffic implausible: dual %d multi %d fixed %d",
			dual.Traffic(), multi.Traffic(), fixed.Traffic())
	}
	trees, err := sys.DoubleChannelXFirst(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Error("no subnetwork trees")
	}
	if err := sys.VerifyDeadlockFree(); err != nil {
		t.Error(err)
	}
}

func TestCubeSystemEndToEnd(t *testing.T) {
	sys, err := multicastnet.NewCubeSystem(5)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sys.Set(7, 1, 12, 25, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SortedMP(k); err != nil {
		t.Error(err)
	}
	if _, err := sys.GreedyST(k); err != nil {
		t.Error(err)
	}
	lenTree, err := sys.LEN(k)
	if err != nil {
		t.Fatal(err)
	}
	if lenTree.Links <= 0 {
		t.Error("empty LEN tree")
	}
	if _, err := sys.MultiPath(k); err != nil {
		t.Error(err)
	}
	// Mesh-only algorithms refuse politely.
	if _, err := sys.XFirstMT(k); err == nil {
		t.Error("X-first should be mesh-only")
	}
	if _, err := sys.DividedGreedyMT(k); err == nil {
		t.Error("divided greedy should be mesh-only")
	}
	if _, err := sys.DoubleChannelXFirst(k); err == nil {
		t.Error("double-channel tree should be mesh-only")
	}
	if _, err := sys.RouteFunc("tree", multicastnet.RouterOptions{}); err == nil {
		t.Error("tree route func should be mesh-only")
	}
	if err := sys.VerifyDeadlockFree(); err != nil {
		t.Error(err)
	}
}

func TestMeshSystemRefusesLENAndOddOddSortedMP(t *testing.T) {
	sys, err := multicastnet.NewMeshSystem(5, 5) // odd x odd: no Hamilton cycle
	if err != nil {
		t.Fatal(err)
	}
	k, err := sys.Set(0, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SortedMP(k); err == nil {
		t.Error("sorted MP should fail without a Hamilton cycle")
	}
	if _, err := sys.LEN(k); err == nil {
		t.Error("LEN should be cube-only")
	}
	// Everything else still works.
	if sys.DualPath(k).Traffic() <= 0 {
		t.Error("dual-path should work on odd x odd meshes")
	}
	if err := sys.VerifyDeadlockFree(); err != nil {
		t.Error(err)
	}
}

func TestSimulateFacade(t *testing.T) {
	sys, err := multicastnet.NewMeshSystem(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dual-path", "multi-path", "fixed-path"} {
		route, err := sys.RouteFunc(name, multicastnet.RouterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := multicastnet.Simulate(multicastnet.SimConfig{
			Topology:               sys.Topology(),
			Route:                  route,
			MeanInterarrivalMicros: 1000,
			AvgDests:               5,
			Seed:                   3,
			WarmupDeliveries:       100,
			BatchSize:              100,
			MinBatches:             3,
			MaxCycles:              200_000,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Deadlocked {
			t.Errorf("%s: deadlocked", name)
		}
		if res.Deliveries == 0 {
			t.Errorf("%s: no deliveries", name)
		}
	}
}

func TestMesh3DSystemEndToEnd(t *testing.T) {
	sys, err := multicastnet.NewMesh3DSystem(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sys.Set(0, 13, 26, 8)
	if err != nil {
		t.Fatal(err)
	}
	dual := sys.DualPath(k)
	fixed := sys.FixedPath(k)
	if dual.Traffic() <= 0 || fixed.Traffic() < dual.Traffic() {
		t.Errorf("3D path traffic implausible: dual %d fixed %d", dual.Traffic(), fixed.Traffic())
	}
	if err := sys.VerifyDeadlockFree(); err != nil {
		t.Error(err)
	}
	if _, err := sys.SortedMP(k); err == nil {
		t.Error("sorted MP should be unavailable without a Hamilton cycle")
	}
	st, err := sys.GreedyST(k)
	if err != nil {
		t.Fatal(err)
	}
	if st.Links <= 0 || st.Links > sys.MultiUnicastTraffic(k) {
		t.Errorf("3D greedy ST traffic %d out of range", st.Links)
	}
}

func TestVirtualChannelFacade(t *testing.T) {
	sys, err := multicastnet.NewMeshSystem(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sys.Set(0, 9, 18, 27, 36, 45, 54, 63)
	if err != nil {
		t.Fatal(err)
	}
	v1 := sys.VirtualChannelPath(k, 1)
	v4 := sys.VirtualChannelPath(k, 4)
	if v1.Traffic() != sys.DualPath(k).Traffic() {
		t.Error("v=1 should equal dual-path")
	}
	if v4.MaxDistance() > v1.MaxDistance() {
		t.Errorf("more copies should not lengthen the worst path (%d vs %d)",
			v4.MaxDistance(), v1.MaxDistance())
	}
	if _, err := sys.RouteFunc("virtual-channel", multicastnet.RouterOptions{VirtualChannels: -1}); err == nil {
		t.Error("virtual-channel route func accepted v = -1")
	}
	route, err := sys.RouteFunc("virtual-channel", multicastnet.RouterOptions{VirtualChannels: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := multicastnet.Simulate(multicastnet.SimConfig{
		Topology:               sys.Topology(),
		Route:                  route,
		MeanInterarrivalMicros: 1000,
		AvgDests:               5,
		Seed:                   9,
		WarmupDeliveries:       100,
		BatchSize:              100,
		MinBatches:             3,
		MaxCycles:              200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Deliveries == 0 {
		t.Errorf("virtual-channel simulation failed: %+v", res)
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := multicastnet.NewMulticastSet(multicastnet.NewMesh2D(3, 3), 0, nil); err == nil {
		t.Error("empty destination set accepted")
	}
	sys, err := multicastnet.NewMeshSystem(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Set(0, 0); err == nil {
		t.Error("source-as-destination accepted")
	}
}

func TestMesh3DTreeFacade(t *testing.T) {
	sys, err := multicastnet.NewMesh3DSystem(4, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sys.Set(0, 11, 22, 35)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sys.XYZFirstMT(k)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Links <= 0 || tree.Links > sys.MultiUnicastTraffic(k) {
		t.Errorf("3D tree traffic %d out of range", tree.Links)
	}
	// 2D systems refuse.
	sys2, err := multicastnet.NewMeshSystem(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := sys2.Set(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.XYZFirstMT(k2); err == nil {
		t.Error("XYZ-first should require a 3D mesh")
	}
}
