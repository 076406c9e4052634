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
	st, err := routing.SharedState(m)
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

// TestSteadyStateAllocationFree pins the arena contract on both
// engines: once slice capacities, the intern table, the worm freelist
// and the epoch-stamped scratch have warmed up, an inject-and-drain
// round allocates nothing — worms, multicast records, tree levels and
// wake lists are all recycled. The round includes a mid-drain FailWhere
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
	for _, shards := range []int{0, 4} {
		net := NewNetwork(m)
		if shards > 1 {
			net.SetShards(shards)
			defer net.Close()
		}
		// Each activation appends its pred to the standing fault list;
		// that bounded, amortized growth is driver state, not round
		// state, so pre-size it to keep the measurement on the scratch.
		net.deadPreds = make([]func(dfr.Channel) bool, 0, 64)
		lost := 0
		net.OnLost(func(topology.NodeID, int) { lost++ })
		round := func() {
			for _, p := range plans {
				net.InjectMulticast(p.Paths, p.Trees, 16)
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
					t.Fatalf("shards=%d: deadlock-free workload deadlocked: %v", shards, ids)
				}
			}
		}
		for i := 0; i < 4; i++ {
			round() // warm capacities, the freelist and the scratch
		}
		if avg := testing.AllocsPerRun(20, round); avg > 0 {
			t.Errorf("shards=%d: steady-state round allocates %.1f objects, want 0", shards, avg)
		}
		if lost == 0 {
			t.Errorf("shards=%d: fault never killed a delivery; the round is not exercising the fault path", shards)
		}
	}
}
