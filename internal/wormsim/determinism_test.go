package wormsim

import (
	"testing"

	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// TestRunDeterministic is the simulator-level regression test for the
// event-driven core: two back-to-back runs of the same Config must
// produce identical Results field for field — nothing in the spawn
// heap, wakeup lists, or idle fast-forward may depend on anything but
// the seed.
func TestRunDeterministic(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	for _, cfg := range []Config{
		{
			Topology:               m,
			Route:                  schemeRoute(t, "dual-path", m, l),
			MeanInterarrivalMicros: 300,
			AvgDests:               10,
			Seed:                   42,
			WarmupDeliveries:       100,
			BatchSize:              100,
			MinBatches:             5,
			MaxCycles:              60_000,
			Check:                  true,
		},
		{
			Topology:               m,
			Route:                  schemeRoute(t, "multi-path", m, l),
			MeanInterarrivalMicros: 400,
			AvgDests:               15,
			UnicastFraction:        0.5,
			Seed:                   7,
			WarmupDeliveries:       50,
			BatchSize:              50,
			MinBatches:             5,
			MaxCycles:              40_000,
			Check:                  true,
		},
	} {
		first, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Fatalf("identical configs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
		}
		if first.Deliveries == 0 {
			t.Fatal("run delivered nothing; determinism check is vacuous")
		}
	}
}
