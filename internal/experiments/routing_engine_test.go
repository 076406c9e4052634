package experiments

import (
	"bytes"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// tinyDyn keeps the sweeps in this file cheap.
func tinyDyn(parallel int) DynamicOptions {
	return DynamicOptions{
		Seed: 1990, MaxCycles: 30_000, Warmup: 100, BatchSize: 100,
		Loads:    []float64{1000, 400},
		Dests:    []int{5, 20},
		Parallel: parallel,
	}
}

func figureCSV(t *testing.T, fig *stats.Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFigureCSVAgainstLegacyRouting regenerates Fig. 7.10 through
// the routing engine and through an inline legacy pipeline that calls
// internal/dfr directly (the pre-refactor wiring), and requires
// byte-identical CSV output.
func TestGoldenFigureCSVAgainstLegacyRouting(t *testing.T) {
	o := tinyDyn(1)
	engine := figureCSV(t, Fig710LatencyVsLoadSingle(o))

	// Legacy pipeline: same figure ID and series names (the point seeds
	// derive from them), routes built straight from dfr.
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	legacy := []namedScheme{
		{"dual-path", func(k core.MulticastSet) wormsim.Injection {
			return wormsim.Injection{Paths: dfr.DualPath(m, l, k).Paths}
		}},
		{"multi-path", func(k core.MulticastSet) wormsim.Injection {
			return wormsim.Injection{Paths: dfr.MultiPathMesh(m, l, k).Paths}
		}},
	}
	fig := &stats.Figure{ID: "Fig 7.10", Title: "Latency under load, single-channel 8x8 mesh",
		XLabel: "load (multicasts/ms/node)", YLabel: "latency (us)"}
	RunSweep(loadSweep(fig, m, legacy, 10, o), o.Parallel)

	if !bytes.Equal(engine, figureCSV(t, fig)) {
		t.Fatal("routing-engine Fig 7.10 CSV differs from the legacy dfr pipeline")
	}
}

// TestFigureCSVIdenticalAcrossWorkers pins the RunSweep determinism
// contract: the same figure is byte-identical whether the sweep runs
// sequentially or with concurrent workers sharing one router per scheme
// (run under -race, this is also the concurrency check for the engine's
// figure wiring).
func TestFigureCSVIdenticalAcrossWorkers(t *testing.T) {
	sequential := figureCSV(t, Fig711LatencyVsDestsSingle(tinyDyn(1)))
	parallel := figureCSV(t, Fig711LatencyVsDestsSingle(tinyDyn(4)))
	if !bytes.Equal(sequential, parallel) {
		t.Fatal("Fig 7.11 CSV depends on the sweep worker count")
	}
}
