package wormsim

import (
	"testing"

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

// TestFlatInjectionMatchesRouteForm runs the same workload twice: with
// route-form plans, which Run flattens into its one reused plan, and with
// one-shot Flatten plans served from a FlatRouter cache. Identical Results
// prove that a reused flattener builds every worm — channel order,
// delivery positions, tree frontiers — exactly as a fresh one does, bit
// for bit.
func TestFlatInjectionMatchesRouteForm(t *testing.T) {
	for _, tc := range flatTopologies() {
		st := routing.NewStateWithLabeling(tc.topo, tc.lab)
		for _, name := range []string{"dual-path", "multi-path", "tree", "virtual-channel"} {
			r, err := routing.New(name, st)
			if err != nil {
				continue
			}
			cfg := Config{
				Topology:               tc.topo,
				Route:                  RouteFuncOf(r),
				MeanInterarrivalMicros: 150,
				AvgDests:               8,
				Seed:                   99,
				WarmupDeliveries:       50,
				BatchSize:              50,
				MinBatches:             4,
				MaxCycles:              25_000,
				Check:                  true,
			}
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s route-form: %v", tc.name, name, err)
			}
			if want.Delivered == 0 {
				t.Fatalf("%s/%s delivered nothing", tc.name, name)
			}
			cfg.Route = FlatRouteFuncOf(routing.Flat(r, routing.NewPlanCache(0)))
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s flat: %v", tc.name, name, err)
			}
			if got != want {
				t.Fatalf("%s/%s flat diverged:\nroute: %+v\nflat:  %+v",
					tc.name, name, want, got)
			}
		}
	}
}
