// Benchmarks regenerating every table and figure of the dissertation's
// evaluation, one per artifact (see the experiment index in DESIGN.md).
// Each benchmark iteration regenerates the artifact at reduced workload
// scale; cmd/mcfigures produces the full-fidelity versions.
package multicastnet_test

import (
	"io"
	"testing"

	"multicastnet"
	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/experiments"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// benchOpts keeps the static figures cheap per iteration.
func benchOpts() experiments.Options { return experiments.Options{Reps: 10, Seed: 1990} }

// benchDyn keeps the dynamic figures cheap per iteration.
func benchDyn() experiments.DynamicOptions {
	return experiments.DynamicOptions{
		Seed: 1990, MaxCycles: 30_000, Warmup: 100, BatchSize: 100,
		Loads: []float64{1000, 300},
		Dests: []int{5, 25},
	}
}

func sinkFigure(b *testing.B, fig interface {
	WriteTable(w io.Writer) error
}) {
	b.Helper()
	if err := fig.WriteTable(io.Discard); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTable51_MeshHamiltonCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteTable51(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable52_MeshSortKeys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteTable52(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable53_CubeHamiltonCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteTable53(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable54_CubeSortKeys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteTable54(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig57_SortedMPExample(b *testing.B) {
	m := topology.NewMesh2D(4, 4)
	c, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		b.Fatal(err)
	}
	k := core.MustMulticastSet(m, 9, []topology.NodeID{0, 1, 6, 12})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if heuristics.SortedMP(m, c, k).Traffic() != 8 {
			b.Fatal("unexpected route")
		}
	}
}

func BenchmarkFig58_SortedMPCubeExample(b *testing.B) {
	h := topology.NewHypercube(4)
	c, err := labeling.CubeHamiltonCycle(h)
	if err != nil {
		b.Fatal(err)
	}
	k := core.MustMulticastSet(h, 0b0011,
		[]topology.NodeID{0b0100, 0b0111, 0b1100, 0b1010, 0b1111})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if heuristics.SortedMP(h, c, k).Traffic() != 8 {
			b.Fatal("unexpected route")
		}
	}
}

func BenchmarkFig59_GreedySTExamples(b *testing.B) {
	m := topology.NewMesh2D(8, 8)
	kMesh := core.MustMulticastSet(m, m.ID(2, 7), []topology.NodeID{
		m.ID(0, 5), m.ID(2, 3), m.ID(4, 1), m.ID(6, 3), m.ID(7, 4)})
	h := topology.NewHypercube(6)
	kCube := core.MustMulticastSet(h, 0b000110,
		[]topology.NodeID{0b010101, 0b000001, 0b001101, 0b101001, 0b110001})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if heuristics.GreedyST(m, kMesh).Links != 14 {
			b.Fatal("unexpected mesh tree")
		}
		heuristics.GreedyST(h, kCube)
	}
}

func BenchmarkFig511_XFirstExample(b *testing.B) {
	m := topology.NewMesh2D(6, 6)
	k := core.MustMulticastSet(m, m.ID(3, 2), []topology.NodeID{
		m.ID(2, 0), m.ID(3, 0), m.ID(4, 0), m.ID(1, 1), m.ID(5, 1),
		m.ID(0, 2), m.ID(1, 3), m.ID(2, 5), m.ID(3, 5), m.ID(5, 5)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if heuristics.XFirstMT(m, k).Links != 23 {
			b.Fatal("unexpected X-first traffic")
		}
		heuristics.DividedGreedyMT(m, k)
	}
}

func BenchmarkFig613_PathRoutingExamples(b *testing.B) {
	m := topology.NewMesh2D(6, 6)
	l := labeling.NewMeshBoustrophedon(m)
	k := core.MustMulticastSet(m, m.ID(3, 2), []topology.NodeID{
		m.ID(0, 0), m.ID(0, 2), m.ID(0, 5), m.ID(1, 3), m.ID(4, 5),
		m.ID(5, 0), m.ID(5, 1), m.ID(5, 3), m.ID(5, 4)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dfr.DualPath(m, l, k).Traffic() != 33 {
			b.Fatal("unexpected dual-path traffic")
		}
		if dfr.MultiPathMesh(m, l, k).Traffic() != 21 {
			b.Fatal("unexpected multi-path traffic")
		}
		if dfr.FixedPath(m, l, k).Traffic() != 35 {
			b.Fatal("unexpected fixed-path traffic")
		}
	}
}

func BenchmarkFig619_CubePathExamples(b *testing.B) {
	h := topology.NewHypercube(4)
	l := labeling.NewHypercubeGray(h)
	k := core.MustMulticastSet(h, 0b1100,
		[]topology.NodeID{0b0100, 0b0011, 0b0111, 0b1000, 0b1111})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dfr.DualPath(h, l, k)
		if dfr.MultiPathCube(h, l, k).Traffic() != 7 {
			b.Fatal("unexpected multi-path traffic")
		}
	}
}

func BenchmarkFig23_SwitchingLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig23Switching())
	}
}

func BenchmarkFig61_TreeDeadlock(b *testing.B) {
	h := topology.NewHypercube(3)
	for i := 0; i < b.N; i++ {
		rec := dfr.NewDependencyRecorder()
		rec.AddTree(dfr.ECubeBroadcastTree(h, 0))
		rec.AddTree(dfr.ECubeBroadcastTree(h, 1))
		if rec.FindCycle() == nil {
			b.Fatal("expected the Fig 6.1 cycle")
		}
	}
}

func BenchmarkFig71_SortedMPMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig71SortedMPMesh(benchOpts()))
	}
}

func BenchmarkFig72_SortedMPCube(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig72SortedMPCube(benchOpts()))
	}
}

func BenchmarkFig73_GreedySTMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig73GreedySTMesh(benchOpts()))
	}
}

func BenchmarkFig74_GreedySTCube(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig74GreedySTCube(benchOpts()))
	}
}

func BenchmarkFig75_MTMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig75MTMesh(benchOpts()))
	}
}

func BenchmarkFig76_PathTrafficCube(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig76PathTrafficCube(benchOpts()))
	}
}

func BenchmarkFig77_PathTrafficMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig77PathTrafficMesh(benchOpts()))
	}
}

func BenchmarkFig78_LatencyVsLoadDouble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig78LatencyVsLoadDouble(benchDyn()))
	}
}

func BenchmarkFig79_LatencyVsDestsDouble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig79LatencyVsDestsDouble(benchDyn()))
	}
}

func BenchmarkFig710_LatencyVsLoadSingle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig710LatencyVsLoadSingle(benchDyn()))
	}
}

func BenchmarkFig711_LatencyVsDestsSingle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig711LatencyVsDestsSingle(benchDyn()))
	}
}

func BenchmarkExt_VirtualChannelsStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.ExtVirtualChannelsStatic(benchOpts()))
	}
}

func BenchmarkExt_VirtualChannelsDynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.ExtVirtualChannelsDynamic(benchDyn()))
	}
}

func BenchmarkExt_UnicastMix(b *testing.B) {
	d := benchDyn()
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.ExtUnicastMix(d))
	}
}

func BenchmarkExt_AdaptiveRouting(b *testing.B) {
	d := benchDyn()
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.ExtAdaptive(d))
	}
}

func BenchmarkExt_DualPath3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.ExtDualPath3D(benchOpts()))
	}
}

func BenchmarkAblation_LabelingChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.AblationLabeling(benchOpts()))
	}
}

func BenchmarkAblation_UnsortedPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.AblationDestinationOrder(benchOpts()))
	}
}

// BenchmarkRouting_* measure the per-multicast routing cost of each
// scheme on a 16x16 mesh with 10 destinations — the decision latency a
// router implementation would pay.
func benchmarkRouting(b *testing.B, route func(core.MulticastSet) int) {
	m := topology.NewMesh2D(16, 16)
	rng := stats.NewRand(1)
	sets := make([]core.MulticastSet, 64)
	for i := range sets {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		raw := rng.Sample(m.Nodes(), 10, int(src))
		dests := make([]topology.NodeID, len(raw))
		for j, v := range raw {
			dests[j] = topology.NodeID(v)
		}
		sets[i] = core.MustMulticastSet(m, src, dests)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += route(sets[i%len(sets)])
	}
	_ = total
}

func BenchmarkRouting_SortedMP(b *testing.B) {
	m := topology.NewMesh2D(16, 16)
	c, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkRouting(b, func(k core.MulticastSet) int { return heuristics.SortedMP(m, c, k).Traffic() })
}

func BenchmarkRouting_GreedyST(b *testing.B) {
	m := topology.NewMesh2D(16, 16)
	benchmarkRouting(b, func(k core.MulticastSet) int { return heuristics.GreedyST(m, k).Links })
}

func BenchmarkRouting_DualPath(b *testing.B) {
	m := topology.NewMesh2D(16, 16)
	l := labeling.NewMeshBoustrophedon(m)
	benchmarkRouting(b, func(k core.MulticastSet) int { return dfr.DualPath(m, l, k).Traffic() })
}

func BenchmarkRouting_MultiPath(b *testing.B) {
	m := topology.NewMesh2D(16, 16)
	l := labeling.NewMeshBoustrophedon(m)
	benchmarkRouting(b, func(k core.MulticastSet) int { return dfr.MultiPathMesh(m, l, k).Traffic() })
}

// BenchmarkSimulator measures raw simulator throughput: cycles per second
// under a steady dual-path workload.
func BenchmarkSimulator(b *testing.B) {
	sys, err := multicastnet.NewMeshSystem(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	route, err := sys.RouteFunc("dual-path", multicastnet.RouterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := wormsim.Config{
		Topology:               sys.Topology(),
		Route:                  route,
		MeanInterarrivalMicros: 400,
		AvgDests:               10,
		Seed:                   5,
		BatchSize:              1 << 30, // never converge; run the full budget
		MinBatches:             1 << 30,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.MaxCycles = 20_000
		if _, err := wormsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWormsimCyclesPerSec reports the simulator core's cycle
// throughput on the same workload as `mcfigures -bench`, so the
// committed BENCH_wormsim.json baseline and this benchmark are directly
// comparable.
func BenchmarkWormsimCyclesPerSec(b *testing.B) {
	var cycles int64
	var secs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, s := experiments.SimThroughput(1990, 200_000)
		cycles += c
		secs += s
	}
	b.ReportMetric(float64(cycles)/secs, "cycles/sec")
}

// BenchmarkDynamicFigures regenerates all four Section 7.2 figures per
// iteration — the end-to-end cost the figure pipeline pays.
func BenchmarkDynamicFigures(b *testing.B) {
	d := benchDyn()
	for i := 0; i < b.N; i++ {
		sinkFigure(b, experiments.Fig78LatencyVsLoadDouble(d))
		sinkFigure(b, experiments.Fig79LatencyVsDestsDouble(d))
		sinkFigure(b, experiments.Fig710LatencyVsLoadSingle(d))
		sinkFigure(b, experiments.Fig711LatencyVsDestsSingle(d))
	}
}

// BenchmarkPublicAPI exercises the facade end to end.
func BenchmarkPublicAPI(b *testing.B) {
	sys, err := multicastnet.NewMeshSystem(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	k, err := sys.Set(27, 4, 18, 35, 49, 62)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sys.Route("dual-path", k, multicastnet.RouterOptions{})
		if err != nil || p.Traffic() == 0 {
			b.Fatal("empty route", err)
		}
	}
}
