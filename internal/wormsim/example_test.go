package wormsim_test

import (
	"fmt"
	"log"

	"multicastnet/internal/labeling"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// ExampleRun shows a Section 7.2 style dynamic simulation: an 8x8 mesh
// under dual-path multicast at a light load converges without deadlock.
func ExampleRun() {
	m := topology.NewMesh2D(8, 8)
	r, err := routing.New("dual-path", routing.NewStateWithLabeling(m, labeling.NewMeshBoustrophedon(m)))
	if err != nil {
		log.Fatal(err)
	}
	res, err := wormsim.Run(wormsim.Config{
		Topology:               m,
		Route:                  wormsim.RouteFuncOf(r),
		MeanInterarrivalMicros: 2000,
		AvgDests:               5,
		Seed:                   1,
		WarmupDeliveries:       200,
		BatchSize:              200,
		MinBatches:             6,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deadlocked=%v, latency above serialization floor: %v\n",
		res.Deadlocked, res.AvgLatencyMicros >= 128.0/20)
	// Output: deadlocked=false, latency above serialization floor: true
}
