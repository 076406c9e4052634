package wormsim

import (
	"strings"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// runUntilQuiet steps the network until no worms remain or a stall
// persists for limit cycles; it returns true if the network drained.
func runUntilQuiet(n *Network, limit int64) bool {
	var lastProgress int64
	for n.ActiveWorms() > 0 {
		if n.Step() {
			lastProgress = n.Cycle()
		} else if n.Cycle()-lastProgress > limit {
			return false
		}
	}
	return true
}

// injectRoutes flattens one multicast's routes and injects them.
func injectRoutes(n *Network, paths []dfr.PathRoute, trees []dfr.TreeRoute, lengthFlits int) {
	n.InjectFlatTag(routing.Flatten(routing.Plan{Paths: paths, Trees: trees}), lengthFlits, 0)
}

// schemeRoute builds the named registry scheme over (topo, l) for Run.
func schemeRoute(t testing.TB, name string, topo topology.Topology, l labeling.Labeling) RouteFunc {
	t.Helper()
	r, err := routing.New(name, routing.NewStateWithLabeling(topo, l))
	if err != nil {
		t.Fatal(err)
	}
	return RouteFuncOf(r)
}

// pathTo builds a simple path route along given nodes delivering to the
// last one.
func pathTo(nodes ...topology.NodeID) dfr.PathRoute {
	return dfr.PathRoute{Nodes: nodes, Dests: []topology.NodeID{nodes[len(nodes)-1]}}
}

// TestSingleWormLatency pins the contention-free pipeline model: a worm
// over D channels carrying L flits delivers in D + L - 1 cycles.
func TestSingleWormLatency(t *testing.T) {
	m := topology.NewMesh2D(8, 1)
	n := NewNetwork(m)
	var got int64 = -1
	n.OnDelivery(func(_ topology.NodeID, cycles int64) { got = cycles })
	const L = 16
	injectRoutes(n, []dfr.PathRoute{pathTo(0, 1, 2, 3, 4, 5)}, nil, L)
	if !runUntilQuiet(n, 1000) {
		t.Fatal("network did not drain")
	}
	want := int64(5 + L - 1)
	if got != want {
		t.Errorf("latency %d cycles, want %d", got, want)
	}
}

// TestSingleFlitLatency checks the L=1 corner: latency equals the hop
// count.
func TestSingleFlitLatency(t *testing.T) {
	m := topology.NewMesh2D(8, 1)
	n := NewNetwork(m)
	var got int64 = -1
	n.OnDelivery(func(_ topology.NodeID, c int64) { got = c })
	injectRoutes(n, []dfr.PathRoute{pathTo(0, 1, 2, 3)}, nil, 1)
	if !runUntilQuiet(n, 1000) {
		t.Fatal("did not drain")
	}
	if got != 3 {
		t.Errorf("latency %d, want 3", got)
	}
}

// TestPathWormMultiDestination checks per-destination delivery along one
// path: nearer destinations receive the message earlier.
func TestPathWormMultiDestination(t *testing.T) {
	m := topology.NewMesh2D(8, 1)
	n := NewNetwork(m)
	lat := map[topology.NodeID]int64{}
	n.OnDelivery(func(d topology.NodeID, c int64) { lat[d] = c })
	completed := int64(-1)
	n.OnComplete(func(c int64) { completed = c })
	p := dfr.PathRoute{Nodes: []topology.NodeID{0, 1, 2, 3, 4}, Dests: []topology.NodeID{2, 4}}
	const L = 8
	injectRoutes(n, []dfr.PathRoute{p}, nil, L)
	if !runUntilQuiet(n, 1000) {
		t.Fatal("did not drain")
	}
	if lat[2] != 2+L-1 || lat[4] != 4+L-1 {
		t.Errorf("latencies %v, want 2->%d 4->%d", lat, 2+L-1, 4+L-1)
	}
	if completed != lat[4] {
		t.Errorf("completion %d, want %d", completed, lat[4])
	}
}

// TestChannelContention checks FIFO blocking: a second worm wanting the
// same channel waits until the first worm's tail releases it.
func TestChannelContention(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	n := NewNetwork(m)
	lat := map[topology.NodeID]int64{}
	n.OnDelivery(func(d topology.NodeID, c int64) { lat[d] = c })
	const L = 10
	// Worm A: 0 -> 1 -> 2; worm B: 4 -> 0 -> 1 -> 5 shares channel (0,1)
	// but must wait for A's tail.
	injectRoutes(n, []dfr.PathRoute{pathTo(0, 1, 2)}, nil, L)
	injectRoutes(n, []dfr.PathRoute{pathTo(4, 0, 1, 5)}, nil, L)
	if !runUntilQuiet(n, 1000) {
		t.Fatal("did not drain")
	}
	if lat[2] != 2+L-1 {
		t.Errorf("worm A latency %d, want %d", lat[2], 2+L-1)
	}
	// Channel (0,1) is released when A's tail crosses it: progress 1+L,
	// i.e. cycle 1+L. B acquired (4,0) at cycle 1, then stalls; it can
	// take (0,1) at the cycle after release.
	if lat[5] <= int64(3+L-1) {
		t.Errorf("worm B latency %d should exceed its contention-free %d", lat[5], 3+L-1)
	}
}

// TestPathDeadlockDetected builds the classic cyclic wait with two long
// worms on a 2x2 mesh and checks that the stall is detected rather than
// spinning forever.
func TestPathDeadlockDetected(t *testing.T) {
	m := topology.NewMesh2D(2, 2)
	n := NewNetwork(m)
	const L = 64
	// Worm A: 0 -> 1 -> 3 -> 2; worm B: 3 -> 2 -> 0 -> 1. After two
	// cycles A holds (0,1),(1,3) and wants (3,2) while B holds
	// (3,2),(2,0) and wants (0,1): a cycle.
	injectRoutes(n, []dfr.PathRoute{pathTo(0, 1, 3, 2)}, nil, L)
	injectRoutes(n, []dfr.PathRoute{pathTo(3, 2, 0, 1)}, nil, L)
	if runUntilQuiet(n, 500) {
		t.Fatal("expected deadlock, network drained")
	}
	if n.ActiveWorms() != 2 {
		t.Errorf("both worms should be stuck, %d active", n.ActiveWorms())
	}
}

// TestFig61TreeDeadlockInSimulator reproduces the Fig. 6.1/6.2 deadlock
// dynamically: simultaneous lock-step broadcast trees from nodes 000 and
// 001 of a 3-cube block forever.
func TestFig61TreeDeadlockInSimulator(t *testing.T) {
	h := topology.NewHypercube(3)
	n := NewNetwork(h)
	const L = 32
	injectRoutes(n, nil, []dfr.TreeRoute{dfr.ECubeBroadcastTree(h, 0)}, L)
	injectRoutes(n, nil, []dfr.TreeRoute{dfr.ECubeBroadcastTree(h, 1)}, L)
	if runUntilQuiet(n, 500) {
		t.Fatal("expected the Fig. 6.1 deadlock, network drained")
	}
}

// TestTreeWormAloneDelivers checks that a single lock-step tree on an
// idle network delivers every destination at depth + L - 1 cycles.
func TestTreeWormAloneDelivers(t *testing.T) {
	h := topology.NewHypercube(3)
	n := NewNetwork(h)
	lat := map[topology.NodeID]int64{}
	n.OnDelivery(func(d topology.NodeID, c int64) { lat[d] = c })
	const L = 16
	tree := dfr.ECubeBroadcastTree(h, 0)
	injectRoutes(n, nil, []dfr.TreeRoute{tree}, L)
	if !runUntilQuiet(n, 1000) {
		t.Fatal("did not drain")
	}
	for v := topology.NodeID(1); int(v) < h.Nodes(); v++ {
		want := int64(h.Distance(0, v) + L - 1)
		if lat[v] != want {
			t.Errorf("node %d latency %d, want %d", v, lat[v], want)
		}
	}
}

// TestFig64NaiveTreesDeadlockDynamic reproduces the Fig. 6.4 mesh
// deadlock in the simulator, then shows the double-channel X-first
// routing of the SAME two multicasts drains fine (Assertion 1).
func TestFig64NaiveTreesDeadlockDynamic(t *testing.T) {
	m := topology.NewMesh2D(4, 3)
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	m0 := core.MustMulticastSet(m, id(1, 1), []topology.NodeID{id(0, 2), id(3, 1)})
	m1 := core.MustMulticastSet(m, id(2, 1), []topology.NodeID{id(0, 1), id(3, 0)})
	const L = 64

	naive := NewNetwork(m)
	injectRoutes(naive, nil, dfr.XFirstTrees(m, m0), L)
	injectRoutes(naive, nil, dfr.XFirstTrees(m, m1), L)
	if runUntilQuiet(naive, 500) {
		t.Fatal("expected the Fig. 6.4 deadlock with naive trees")
	}

	safe := NewNetwork(m)
	injectRoutes(safe, nil, dfr.DoubleChannelXFirst(m, m0), L)
	injectRoutes(safe, nil, dfr.DoubleChannelXFirst(m, m1), L)
	if !runUntilQuiet(safe, 2000) {
		t.Fatal("double-channel X-first should not deadlock")
	}
}

// TestRunDualPathConverges smoke-tests the full dynamic driver at light
// load: it converges, nothing deadlocks, and the latency is at least the
// contention-free floor L/B.
func TestRunDualPathConverges(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	res, err := Run(Config{
		Topology:               m,
		Route:                  schemeRoute(t, "dual-path", m, l),
		MeanInterarrivalMicros: 2000,
		AvgDests:               5,
		Seed:                   1,
		WarmupDeliveries:       200,
		BatchSize:              200,
		MinBatches:             6,
		MaxCycles:              2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("dual-path deadlocked")
	}
	if res.Deliveries == 0 {
		t.Fatal("no deliveries measured")
	}
	floor := 128.0 / 20.0 // L/B in microseconds
	if res.AvgLatencyMicros < floor {
		t.Errorf("latency %.2f below serialization floor %.2f", res.AvgLatencyMicros, floor)
	}
	if res.AvgLatencyMicros > 40 {
		t.Errorf("latency %.2f implausibly high at light load", res.AvgLatencyMicros)
	}
	if res.AvgCompletionMicros < res.AvgLatencyMicros {
		t.Errorf("completion %.2f below per-destination %.2f",
			res.AvgCompletionMicros, res.AvgLatencyMicros)
	}
}

// TestRunSchemesNoDeadlockUnderLoad runs every deadlock-free scheme at a
// heavy load long enough for channel conflicts to be pervasive and checks
// that none of them deadlocks — the dynamic counterpart of the CDG
// acyclicity proofs.
func TestRunSchemesNoDeadlockUnderLoad(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	h := topology.NewHypercube(6)
	lh := labeling.NewHypercubeGray(h)
	schemes := []struct {
		name  string
		topo  topology.Topology
		route RouteFunc
	}{
		{"dual-path mesh", m, schemeRoute(t, "dual-path", m, l)},
		{"multi-path mesh", m, schemeRoute(t, "multi-path", m, l)},
		{"fixed-path mesh", m, schemeRoute(t, "fixed-path", m, l)},
		{"double-channel tree", m, schemeRoute(t, "tree", m, l)},
		{"dual-path cube", h, schemeRoute(t, "dual-path", h, lh)},
		{"multi-path cube", h, schemeRoute(t, "multi-path", h, lh)},
	}
	for _, s := range schemes {
		res, err := Run(Config{
			Topology:               s.topo,
			Route:                  s.route,
			MeanInterarrivalMicros: 400,
			AvgDests:               6,
			Seed:                   7,
			WarmupDeliveries:       100,
			BatchSize:              300,
			MinBatches:             4,
			MaxCycles:              150_000,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if res.Deadlocked {
			t.Errorf("%s deadlocked", s.name)
		}
		if res.Deliveries == 0 {
			t.Errorf("%s made no deliveries", s.name)
		}
	}
}

// TestRunNaiveTreeDeadlocksUnderLoad demonstrates dynamically that the
// naive single-channel tree scheme deadlocks under load (Section 6.1).
func TestRunNaiveTreeDeadlocksUnderLoad(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	res, err := Run(Config{
		Topology:               m,
		Route:                  schemeRoute(t, "naive-tree", m, labeling.NewMeshBoustrophedon(m)),
		MeanInterarrivalMicros: 100,
		AvgDests:               10,
		Seed:                   3,
		BatchSize:              1000,
		MinBatches:             1000, // never converge; run until deadlock or cap
		MaxCycles:              2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Error("naive tree multicast should deadlock under load")
	}
}

// TestInjectValidation checks the injection guards: a message without
// flits, a path that misses its destination and a path over a
// non-channel are all refused, by the flattener or the injector.
func TestInjectValidation(t *testing.T) {
	m := topology.NewMesh2D(3, 3)
	n := NewNetwork(m)
	for i, fn := range []func(){
		func() { injectRoutes(n, []dfr.PathRoute{pathTo(0, 1)}, nil, 0) },
		func() {
			injectRoutes(n, []dfr.PathRoute{{Nodes: []topology.NodeID{0, 1},
				Dests: []topology.NodeID{5}}}, nil, 4)
		},
		func() {
			injectRoutes(n, []dfr.PathRoute{{Nodes: []topology.NodeID{0, 5},
				Dests: []topology.NodeID{5}}}, nil, 4)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestInjectRejectsNonChannels pins the validation in front of the channel
// index: a hop that leaves the topology or joins non-adjacent nodes panics
// with the non-channel message, for path and tree worms alike. Several
// hops are adjacent by node arithmetic alone — node 9 sits "above" node 6
// in a 3x3 mesh, node -1 "left of" node 0, and node 16 differs from node
// 0 in one bit of a 4-cube — so adjacency cannot stand in for the range
// check. The flattener refuses a tree over a negative node id before the
// simulator sees it.
func TestInjectRejectsNonChannels(t *testing.T) {
	mesh := topology.NewMesh2D(3, 3)
	cube := topology.NewHypercube(4)
	hops := []struct {
		topo     topology.Topology
		from, to topology.NodeID
	}{
		{mesh, 0, 4}, {mesh, 6, 9}, {mesh, 9, 6}, {mesh, 0, -1}, {mesh, -1, 0},
		{cube, 0, 3}, {cube, 0, 16}, {cube, 16, 0},
	}
	for _, h := range hops {
		path := dfr.PathRoute{Nodes: []topology.NodeID{h.from, h.to}, Dests: []topology.NodeID{h.to}}
		tree := dfr.TreeRoute{Root: h.from, Edges: []dfr.Channel{{From: h.from, To: h.to}},
			Dests: []topology.NodeID{h.to}}
		for name, plan := range map[string]routing.Plan{
			"path": {Paths: []dfr.PathRoute{path}},
			"tree": {Trees: []dfr.TreeRoute{tree}},
		} {
			want := "wormsim: route uses non-channel"
			if name == "tree" && (h.from < 0 || h.to < 0) {
				want = "routing: tree reaches negative node"
			}
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, want) {
						t.Errorf("%s hop %d->%d on %d nodes: panic %q, want %q",
							name, h.from, h.to, h.topo.Nodes(), msg, want)
					}
				}()
				NewNetwork(h.topo).InjectFlatTag(routing.Flatten(plan), 4, 0)
			}()
		}
	}
}

// TestBusyOutsideTopology pins Busy's miss path: a channel that was never
// interned — including one whose source lies outside the topology — is
// free, and asking never panics.
func TestBusyOutsideTopology(t *testing.T) {
	n := NewNetwork(topology.NewMesh2D(3, 3))
	injectRoutes(n, []dfr.PathRoute{pathTo(0, 1, 2)}, nil, 8)
	n.Step()
	if !n.Busy(dfr.Channel{From: 0, To: 1}) {
		t.Fatal("Busy reports the held channel 0->1 free")
	}
	for _, c := range []dfr.Channel{
		{From: 9, To: 6}, {From: 100, To: 0}, {From: -1, To: 0},
		{From: 0, To: 9}, {From: 0, To: 1, Class: 1}, {From: 1, To: 0},
	} {
		if n.Busy(c) {
			t.Errorf("Busy(%v) = true for a channel never interned", c)
		}
	}
}

// TestDoubleChannelClassesAreDistinct checks that two worms on the same
// physical link but different classes do not contend.
func TestDoubleChannelClassesAreDistinct(t *testing.T) {
	m := topology.NewMesh2D(3, 2)
	n := NewNetwork(m)
	lat := map[topology.NodeID]int64{}
	n.OnDelivery(func(d topology.NodeID, c int64) {
		if _, ok := lat[d]; !ok {
			lat[d] = c
		}
	})
	const L = 10
	// Both worms cross the physical link 0 -> 1, on different channel
	// copies: neither should wait.
	a := dfr.PathRoute{Nodes: []topology.NodeID{0, 1, 2}, Class: 0, Dests: []topology.NodeID{2}}
	b := dfr.PathRoute{Nodes: []topology.NodeID{0, 1, 4}, Class: 1, Dests: []topology.NodeID{4}}
	injectRoutes(n, []dfr.PathRoute{a}, nil, L)
	injectRoutes(n, []dfr.PathRoute{b}, nil, L)
	if !runUntilQuiet(n, 1000) {
		t.Fatal("did not drain")
	}
	if lat[2] != 2+L-1 || lat[4] != 2+L-1 {
		t.Errorf("class-separated worms should not contend: %v", lat)
	}
}

// TestDeadlockedWormIDs exercises DetectDeadlock's id report on the
// classic two-worm cycle.
func TestDeadlockedWormIDs(t *testing.T) {
	m := topology.NewMesh2D(2, 2)
	n := NewNetwork(m)
	const L = 64
	injectRoutes(n, []dfr.PathRoute{pathTo(0, 1, 3, 2)}, nil, L)
	injectRoutes(n, []dfr.PathRoute{pathTo(3, 2, 0, 1)}, nil, L)
	if ids := n.DetectDeadlock(); ids != nil {
		t.Fatalf("no deadlock before any cycle: %v", ids)
	}
	runUntilQuiet(n, 200)
	ids := n.DetectDeadlock()
	if len(ids) != 2 {
		t.Fatalf("expected the two stuck worms, got %v", ids)
	}
}
