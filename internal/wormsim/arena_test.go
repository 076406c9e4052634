package wormsim

import (
	"testing"

	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// arenaWorkload precomputes a mixed path/tree injection workload on an
// 8x8 mesh so the measurement loop exercises only the simulator — no
// routing, no cache keys, no workload generation.
func arenaWorkload(t testing.TB) (*topology.Mesh2D, []routing.Plan) {
	t.Helper()
	m := topology.NewMesh2D(8, 8)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	var plans []routing.Plan
	for _, w := range []struct {
		scheme string
		src    topology.NodeID
		dests  []topology.NodeID
	}{
		{"dual-path", 0, []topology.NodeID{9, 18, 27, 36, 63}},
		{"tree", 5, []topology.NodeID{12, 21, 30, 39, 60}},
		{"multi-path", 63, []topology.NodeID{0, 7, 28, 56}},
		{"tree", 36, []topology.NodeID{0, 7, 56, 63}},
		{"dual-path", 28, []topology.NodeID{1, 34, 62}},
	} {
		r, err := routing.New(w.scheme, st)
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Plan(w.src, w.dests)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	return m, plans
}

// TestSteadyStateAllocationFree pins the arena contract: once slice
// capacities, the channel slot table, the worm freelist and one flattener with
// its plan have warmed up, a flatten-inject-and-drain round allocates
// nothing — plans, worms, multicast records, tree levels and wake lists
// are all recycled. The round includes a mid-drain FailWhere
// activation (fault-killing worms on first contact in later rounds), and
// an invariant check and a deadlock search after every cycle, so the
// fault path's victim scratch, the checker's slice-indexed scratch and
// the wait-for graph are held to the same zero-alloc bar as the hot
// loop.
func TestSteadyStateAllocationFree(t *testing.T) {
	m, plans := arenaWorkload(t)
	// A channel held by in-flight worms three cycles into the drain (on
	// every virtual-channel class). The pred never captures, so
	// activating it allocates nothing.
	crossFault := func(c dfr.Channel) bool { return c.From == 36 && c.To == 37 }
	net := NewNetwork(m)
	// Each activation appends its pred to the standing fault list; that
	// bounded, amortized growth is driver state, not round state, so
	// pre-size it to keep the measurement on the scratch.
	net.deadPreds = make([]func(dfr.Channel) bool, 0, 64)
	lost := 0
	net.OnLost(func(topology.NodeID, int) { lost++ })
	fl := routing.NewFlattener(m)
	var fp routing.FlatPlan
	round := func() {
		for _, p := range plans {
			net.InjectFlatTag(fl.Flatten(&fp, p), 16, 0)
		}
		for i := 0; net.ActiveWorms() > 0; i++ {
			if i == 3 {
				net.FailWhere(crossFault)
			}
			net.Step()
			if err := net.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if ids := net.DetectDeadlock(); ids != nil {
				t.Fatalf("deadlock-free workload deadlocked: %v", ids)
			}
		}
	}
	for i := 0; i < 4; i++ {
		round() // warm capacities, the freelist and the flattener
	}
	if avg := testing.AllocsPerRun(20, round); avg > 0 {
		t.Errorf("steady-state round allocates %.1f objects, want 0", avg)
	}
	if lost == 0 {
		t.Error("fault never killed a delivery; the round is not exercising the fault path")
	}
}

// TestEmptyInjectionsLeaveNoRecords: a plan with no worms — all its
// routes degenerate, as fault.SimSchedule routes a multicast whose source
// node is dead — takes no multicast record. Only a recycled worm frees a
// record, so one taken here would stay in mcSlots for the network's life.
func TestEmptyInjectionsLeaveNoRecords(t *testing.T) {
	n := NewNetwork(topology.NewMesh2D(4, 4))
	for _, p := range []routing.Plan{
		{},
		{Paths: []dfr.PathRoute{{Nodes: []topology.NodeID{5}, Dests: []topology.NodeID{6}}}},
		{Trees: []dfr.TreeRoute{{Root: 5, Dests: []topology.NodeID{6}}}},
	} {
		fp := routing.Flatten(n.topo, p)
		for i := 0; i < 1000; i++ {
			n.InjectFlatTag(fp, 8, uint64(i))
			n.Step()
		}
	}
	if len(n.mcSlots) != 0 || n.ActiveWorms() != 0 {
		t.Fatalf("3000 empty injections left %d multicast records and %d worms", len(n.mcSlots), n.ActiveWorms())
	}
}
