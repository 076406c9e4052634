package routing

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// TestDeadlockFreeMatchesCDG checks every scheme's DeadlockFree claim
// against the channel dependency graph of its plans (Section 2.3.4):
// the union graph of an all-source broadcast workload plus seeded random
// multicasts must be acyclic exactly when the table marks the scheme
// deadlock-free. Trees are recorded under the lock-step rule, so the
// naive tree's Fig. 6.4 cycles show. The same plans check TreeClasses:
// it must count exactly the channel classes the scheme's trees use. A
// scheme a topology does not support is skipped there, but every scheme
// must be checked somewhere.
func TestDeadlockFreeMatchesCDG(t *testing.T) {
	checked := make(map[string]bool)
	for _, topo := range []topology.Topology{
		topology.NewMesh2D(4, 3),
		topology.NewMesh2D(6, 6),
		topology.NewHypercube(4),
		topology.NewMesh3D(3, 3, 3),
	} {
		st, err := NewState(topo)
		if err != nil {
			t.Fatal(err)
		}
		sets := cdgWorkload(topo)
		for _, info := range Schemes() {
			r, err := info.Build(st, Options{})
			if err != nil {
				continue // scheme unsupported on this topology
			}
			checked[info.Name] = true
			rec := dfr.NewDependencyRecorder()
			treeClasses := 0
			for _, k := range sets {
				p := r.PlanSet(k)
				for _, pr := range p.Paths {
					rec.AddPath(pr)
				}
				for _, tr := range p.Trees {
					rec.AddTree(tr)
					for _, e := range tr.Edges {
						treeClasses = max(treeClasses, e.Class+1)
					}
				}
			}
			if treeClasses != info.TreeClasses {
				t.Errorf("%s on %s: TreeClasses is %d, its trees use %d classes",
					info.Name, topo.Name(), info.TreeClasses, treeClasses)
			}
			if cyc := rec.FindCycle(); (cyc == nil) != info.DeadlockFree {
				t.Errorf("%s on %s: DeadlockFree is %v, dependency cycle %v",
					info.Name, topo.Name(), info.DeadlockFree, cyc)
			}
		}
	}
	for _, name := range Names() {
		if !checked[name] {
			t.Errorf("%s builds on none of the test topologies", name)
		}
	}
}

// cdgWorkload returns a broadcast from every node of t followed by 4
// seeded random multicasts per node.
func cdgWorkload(t topology.Topology) []core.MulticastSet {
	var sets []core.MulticastSet
	for src := topology.NodeID(0); int(src) < t.Nodes(); src++ {
		var dests []topology.NodeID
		for v := topology.NodeID(0); int(v) < t.Nodes(); v++ {
			if v != src {
				dests = append(dests, v)
			}
		}
		sets = append(sets, core.MustMulticastSet(t, src, dests))
	}
	rng := stats.NewRand(0xCD6)
	for i := 0; i < 4*t.Nodes(); i++ {
		sets = append(sets, randomSet(t, rng, 1+rng.Intn(t.Nodes()-1)))
	}
	return sets
}
