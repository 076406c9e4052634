package wormsim

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// flatTopologies are the (topology, labeling) pairs the flat-injection
// test covers.
func flatTopologies() []struct {
	name string
	topo topology.Topology
	lab  labeling.Labeling
} {
	m := topology.NewMesh2D(8, 8)
	h := topology.NewHypercube(6)
	return []struct {
		name string
		topo topology.Topology
		lab  labeling.Labeling
	}{
		{"mesh8x8", m, labeling.NewMeshBoustrophedon(m)},
		{"hypercube64", h, labeling.NewHypercubeGray(h)},
	}
}

// pathsAsTrees routes with r and rewrites every path of two or more
// nodes as a lock-step tree whose levels each hold one channel: the
// path's hops in order, each with its class, delivering the same
// destinations. The rewritten trees go ahead of the plan's own trees, so
// worms keep their injection order. Degenerate paths stay paths; the
// flattener drops them but counts their destinations.
func pathsAsTrees(r routing.Router) RouteFunc {
	return func(k core.MulticastSet) Injection {
		p := r.PlanSet(k)
		var inj Injection
		for _, pr := range p.Paths {
			if len(pr.Nodes) < 2 {
				inj.Paths = append(inj.Paths, pr)
				continue
			}
			inj.Trees = append(inj.Trees, dfr.TreeRoute{Root: pr.Nodes[0], Edges: pr.Channels(), Dests: pr.Dests})
		}
		inj.Trees = append(inj.Trees, p.Trees...)
		return inj
	}
}

// TestFlatInjectionMatchesRouteForm runs the same workload three ways:
// with route-form plans, which Run flattens into its one reused plan;
// with one-shot Flatten plans served from a FlatRouter cache; and with
// every path rewritten as a tree with one channel per level. Identical
// Results prove that a reused flattener builds every worm — channel
// order, delivery positions, tree frontiers — exactly as a fresh one
// does, bit for bit, and that a path worm behaves exactly as the
// lock-step tree whose levels each hold one of its channels. Every
// registry scheme that builds runs at a moderate load, at saturation and
// with the outgoing channels of one node failing mid-run.
func TestFlatInjectionMatchesRouteForm(t *testing.T) {
	points := []struct {
		name    string
		interUS float64
		faults  []ScheduledFault
	}{
		{"moderate", 150, nil},
		{"saturated", 40, nil},
		{"fault", 150, []ScheduledFault{{Cycle: 3_000, Dead: func(c dfr.Channel) bool { return c.From == 27 }}}},
	}
	runs, lost := 0, 0
	for _, tc := range flatTopologies() {
		st := routing.NewStateWithLabeling(tc.topo, tc.lab)
		for _, name := range routing.Names() {
			r, err := routing.New(name, st)
			if err != nil {
				continue
			}
			for _, pt := range points {
				label := tc.name + "/" + name + "/" + pt.name
				cfg := Config{
					Topology:               tc.topo,
					Route:                  RouteFuncOf(r),
					MeanInterarrivalMicros: pt.interUS,
					AvgDests:               8,
					Seed:                   99,
					WarmupDeliveries:       50,
					BatchSize:              50,
					MinBatches:             4,
					MaxCycles:              10_000,
					Faults:                 pt.faults,
					Check:                  true,
				}
				want, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s route-form: %v", label, err)
				}
				if want.Delivered == 0 {
					t.Fatalf("%s delivered nothing", label)
				}
				runs++
				lost += want.Lost
				for _, form := range []struct {
					name  string
					route RouteFunc
				}{
					{"flat", FlatRouteFuncOf(routing.Flat(r, routing.NewPlanCache(0)))},
					{"paths as trees", pathsAsTrees(r)},
				} {
					cfg.Route = form.route
					got, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s %s: %v", label, form.name, err)
					}
					if got != want {
						t.Fatalf("%s %s diverged:\nroute: %+v\n%s: %+v", label, form.name, want, form.name, got)
					}
				}
			}
		}
	}
	if runs < 2*len(points) || lost == 0 {
		t.Fatalf("%d runs lost %d destinations: the schemes or the fault epoch did not run", runs, lost)
	}
}
