package experiments

import (
	"time"

	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// SimThroughput measures raw simulator-core speed: one dual-path run on
// an 8x8 mesh under the Fig. 7.11 high-load workload (300 us
// inter-arrival, 10 average destinations), capped at maxCycles. It
// returns the simulated cycle count and the wall-clock seconds spent,
// from which callers derive cycles/sec. Used by `mcfigures -bench` and
// BenchmarkWormsimCyclesPerSec so both report the same workload.
func SimThroughput(seed uint64, maxCycles int64) (cycles int64, secs float64) {
	m := topology.NewMesh2D(8, 8)
	route := simRoute("dual-path", mustState(m), routing.Options{})
	start := time.Now()
	res, err := wormsim.Run(wormsim.Config{
		Topology:               m,
		Route:                  route,
		MeanInterarrivalMicros: 300,
		AvgDests:               10,
		Seed:                   seed,
		WarmupDeliveries:       100,
		BatchSize:              100,
		MinBatches:             1 << 30, // never converge: run the full cycle budget
		MaxCycles:              maxCycles,
	})
	if err != nil {
		panic(err)
	}
	return res.Cycles, time.Since(start).Seconds()
}
