package multicastnet_test

import (
	"reflect"
	"testing"

	"multicastnet"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
)

// mustRoute routes k with the named scheme through the facade's one
// selector and fails the test on an error.
func mustRoute(t *testing.T, sys *multicastnet.System, name string, k multicastnet.MulticastSet, vc int) multicastnet.Plan {
	t.Helper()
	p, err := sys.Route(name, k, multicastnet.RouterOptions{VirtualChannels: vc})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestRouteMatchesRegistry pins System.Route to the routing registry:
// for every scheme, on a mesh and a cube, with default, explicit and
// invalid virtual-channel counts, it returns the plan or the error of a
// router built directly over routing.NewState.
func TestRouteMatchesRegistry(t *testing.T) {
	mesh, err := multicastnet.NewMeshSystem(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := multicastnet.NewCubeSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(1990)
	for _, sys := range []*multicastnet.System{mesh, cube} {
		topo := sys.Topology()
		st, err := routing.NewState(topo)
		if err != nil {
			t.Fatal(err)
		}
		var sets []multicastnet.MulticastSet
		for _, size := range []int{1, 5, 12} {
			nodes := rng.Sample(topo.Nodes(), size+1)
			dests := make([]multicastnet.NodeID, size)
			for i, v := range nodes[1:] {
				dests[i] = multicastnet.NodeID(v)
			}
			k, err := sys.Set(multicastnet.NodeID(nodes[0]), dests...)
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, k)
		}
		for _, name := range routing.Names() {
			for _, vc := range []int{-1, 0, 1, 2, 4} {
				opts := multicastnet.RouterOptions{VirtualChannels: vc}
				r, wantErr := routing.NewWithOptions(name, st, opts)
				for _, k := range sets {
					got, err := sys.Route(name, k, opts)
					switch {
					case wantErr != nil:
						if err == nil || err.Error() != wantErr.Error() {
							t.Errorf("%s on %s, v=%d: err = %v, want %v", name, topo.Name(), vc, err, wantErr)
						}
					case err != nil:
						t.Errorf("%s on %s, v=%d: %v", name, topo.Name(), vc, err)
					case !reflect.DeepEqual(got, r.PlanSet(k)):
						t.Errorf("%s on %s, v=%d, set %v: plan differs from the registry's", name, topo.Name(), vc, k)
					}
				}
			}
		}
		for _, k := range sets {
			if _, err := sys.Route("virtual-channel", k, multicastnet.RouterOptions{VirtualChannels: -1}); err == nil {
				t.Errorf("virtual-channel on %s accepted v = -1", topo.Name())
			}
			if def, two := mustRoute(t, sys, "virtual-channel", k, 0), mustRoute(t, sys, "virtual-channel", k, 2); !reflect.DeepEqual(def, two) {
				t.Errorf("virtual-channel on %s: v = 0 routes %+v, v = 2 routes %+v", topo.Name(), def, two)
			}
		}
		if _, err := sys.Route("no-such-scheme", sets[0], multicastnet.RouterOptions{}); err == nil {
			t.Errorf("unknown scheme accepted on %s", topo.Name())
		}
	}
}

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

	dual := mustRoute(t, sys, "dual-path", k, 0)
	multi := mustRoute(t, sys, "multi-path", k, 0)
	fixed := mustRoute(t, sys, "fixed-path", k, 0)
	if dual.Traffic() <= 0 || multi.Traffic() <= 0 || fixed.Traffic() < dual.Traffic() {
		t.Errorf("path traffic implausible: dual %d multi %d fixed %d",
			dual.Traffic(), multi.Traffic(), fixed.Traffic())
	}
	if len(mustRoute(t, sys, "tree", k, 0).Trees) == 0 {
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
	mustRoute(t, sys, "multi-path", k, 0)
	// Mesh-only algorithms refuse politely.
	if _, err := sys.XFirstMT(k); err == nil {
		t.Error("X-first should be mesh-only")
	}
	if _, err := sys.DividedGreedyMT(k); err == nil {
		t.Error("divided greedy should be mesh-only")
	}
	if _, err := sys.Route("tree", k, multicastnet.RouterOptions{}); err == nil {
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
	if mustRoute(t, sys, "dual-path", k, 0).Traffic() <= 0 {
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
	dual := mustRoute(t, sys, "dual-path", k, 0)
	fixed := mustRoute(t, sys, "fixed-path", k, 0)
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
	v1 := mustRoute(t, sys, "virtual-channel", k, 1)
	v4 := mustRoute(t, sys, "virtual-channel", k, 4)
	if v1.Traffic() != mustRoute(t, sys, "dual-path", k, 0).Traffic() {
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

// TestSystemRejectsBadDimensions: the System constructors return an
// error, not the topology package's panic, for dimensions it rejects.
func TestSystemRejectsBadDimensions(t *testing.T) {
	for name, build := range map[string]func() (*multicastnet.System, error){
		"mesh 0x8":       func() (*multicastnet.System, error) { return multicastnet.NewMeshSystem(0, 8) },
		"mesh 8x-1":      func() (*multicastnet.System, error) { return multicastnet.NewMeshSystem(8, -1) },
		"cube 0":         func() (*multicastnet.System, error) { return multicastnet.NewCubeSystem(0) },
		"cube -3":        func() (*multicastnet.System, error) { return multicastnet.NewCubeSystem(-3) },
		"cube 63":        func() (*multicastnet.System, error) { return multicastnet.NewCubeSystem(63) },
		"3D mesh 3x0x3":  func() (*multicastnet.System, error) { return multicastnet.NewMesh3DSystem(3, 0, 3) },
		"3D mesh 3x3x-2": func() (*multicastnet.System, error) { return multicastnet.NewMesh3DSystem(3, 3, -2) },
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if sys, err := build(); err == nil || sys != nil {
				t.Errorf("%s: got (%v, %v), want an error", name, sys, err)
			}
		}()
	}
}
