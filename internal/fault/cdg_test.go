package fault

import (
	"errors"
	"fmt"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// TestMaskedCDGAcyclic is the fault-tolerance acceptance test: for every
// scheme in the registry and a large population of seeded random fault
// masks per topology, degraded planning must produce either plans whose
// channel dependency graph stays acyclic (re-verified through
// internal/dfr) or a typed partition error — never a cyclic dependency
// and never a panic.
//
// The CDG is accumulated per (topology, scheme) across ALL masks and
// multicast sets, which is strictly stronger than per-mask acyclicity:
// worms from different fault epochs can coexist in a network while an
// epoch turns over, so their dependencies must compose too. For a
// scheme the registry does not mark deadlock-free (naive-tree) only
// per-plan acyclicity is asserted.
func TestMaskedCDGAcyclic(t *testing.T) {
	masks := 1000
	if testing.Short() {
		masks = 100
	}
	topos := []topology.Topology{
		topology.NewMesh2D(4, 4),
		topology.NewMesh2D(5, 4),
		topology.NewHypercube(3),
		topology.NewHypercube(4),
	}
	for _, topo := range topos {
		topo := topo
		t.Run(topo.Name(), func(t *testing.T) {
			t.Parallel()
			st, err := routing.NewState(topo)
			if err != nil {
				t.Fatal(err)
			}
			recorders := make(map[string]*dfr.DependencyRecorder)
			for _, name := range routing.Names() {
				recorders[name] = dfr.NewDependencyRecorder()
			}
			nLinks := len(EnumerateLinks(topo))
			for trial := 0; trial < masks; trial++ {
				seed := stats.DeriveSeed(0xFA017, fmt.Sprintf("%s/%d", topo.Name(), trial))
				rng := stats.NewRand(seed)
				spec := Spec{
					Links:    rng.Intn(nLinks/3 + 1),
					Nodes:    rng.Intn(3),
					VCs:      rng.Intn(5),
					MaxClass: 2,
					Seed:     seed,
				}
				events := NewPlan(topo, spec).Events()
				masked := maskedOf(topo, events)
				sets := randomSets(topo, events, rng, 3)
				for _, info := range routing.Schemes() {
					name := info.Name
					dr, err := routerFor(name, st, events)
					if err != nil {
						continue // scheme unsupported on this topology
					}
					for _, k := range sets {
						plan, _, err := planNoPanic(t, dr, k)
						if err != nil {
							if !errors.Is(err, ErrPartitioned) {
								t.Fatalf("%s trial %d: untyped error: %v", name, trial, err)
							}
							var pe *PartitionError
							if !errors.As(err, &pe) {
								t.Fatalf("%s trial %d: partition error lacks detail: %v", name, trial, err)
							}
							for _, d := range pe.Unreachable {
								if masked.Reachable(k.Source, d) {
									t.Fatalf("%s trial %d: %d reported unreachable but isn't", name, trial, d)
								}
							}
						}
						if live, ok := liveSubset(topo, masked, k); ok {
							if err := plan.Validate(masked, live); err != nil {
								t.Fatalf("%s trial %d: degraded plan invalid: %v\nmask: %dL %dN", name, trial, err, spec.Links, spec.Nodes)
							}
						} else if plan.Messages() > 0 {
							t.Fatalf("%s trial %d: non-empty plan with no reachable destinations", name, trial)
						}
						if !info.DeadlockFree {
							perPlanAcyclic(t, name, trial, plan)
							continue
						}
						recordPlan(recorders[name], plan)
					}
				}
			}
			for _, info := range routing.Schemes() {
				if !info.DeadlockFree {
					continue
				}
				if cyc := recorders[info.Name].FindCycle(); cyc != nil {
					t.Errorf("%s: degraded plans produced a channel dependency cycle: %v", info.Name, cyc)
				}
			}
		})
	}
}

// planNoPanic converts a degraded-planning panic into a test failure
// with the scheme attached (the acceptance criterion says "never a
// panic").
func planNoPanic(t *testing.T, dr *LiveRouter, k core.MulticastSet) (plan routing.Plan, st PlanStats, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: PlanDegraded panicked: %v", dr.Scheme(), r)
		}
	}()
	return dr.PlanDegraded(k)
}

// randomSets draws n multicast sets over the healthy topology with a
// source the events leave alive, mirroring what a fault-epoch workload
// looks like.
func randomSets(topo topology.Topology, events []Event, rng *stats.Rand, n int) []core.MulticastSet {
	var out []core.MulticastSet
	for len(out) < n {
		src := topology.NodeID(rng.Intn(topo.Nodes()))
		if nodeDeadIn(events, src) {
			continue // dead sources are covered by TestSourceDead
		}
		var dests []topology.NodeID
		for _, d := range rng.Sample(topo.Nodes(), 1+rng.Intn(5), int(src)) {
			dests = append(dests, topology.NodeID(d))
		}
		k, err := core.NewMulticastSet(topo, src, dests)
		if err != nil {
			continue
		}
		out = append(out, k)
	}
	return out
}

// liveSubset restricts k to the destinations reachable over the masked
// graph; ok is false when none survive.
func liveSubset(topo topology.Topology, masked *topology.LiveMasked, k core.MulticastSet) (core.MulticastSet, bool) {
	var live []topology.NodeID
	for _, d := range k.Dests {
		if masked.Reachable(k.Source, d) {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return core.MulticastSet{}, false
	}
	out, err := core.NewMulticastSet(topo, k.Source, live)
	return out, err == nil
}

// perPlanAcyclic checks a single plan's CDG in isolation (used for
// naive-tree, which is only safe one multicast at a time).
func perPlanAcyclic(t *testing.T, name string, trial int, plan routing.Plan) {
	t.Helper()
	rec := dfr.NewDependencyRecorder()
	recordPlan(rec, plan)
	if cyc := rec.FindCycle(); cyc != nil {
		t.Fatalf("%s trial %d: single-plan dependency cycle: %v", name, trial, cyc)
	}
}

// recordPlan folds every path and tree of plan into rec.
func recordPlan(rec *dfr.DependencyRecorder, plan routing.Plan) {
	for _, p := range plan.Paths {
		rec.AddPath(p)
	}
	for _, tr := range plan.Trees {
		rec.AddTree(tr)
	}
}
