package heuristics

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// benchWorkload builds a deterministic pool of multicast sets.
func benchWorkload(tb testing.TB, t topology.Topology, dests, count int) []core.MulticastSet {
	rng := stats.NewRand(1990)
	sets := make([]core.MulticastSet, count)
	for i := range sets {
		src := topology.NodeID(rng.Intn(t.Nodes()))
		raw := rng.Sample(t.Nodes(), dests, int(src))
		ds := make([]topology.NodeID, dests)
		for j, v := range raw {
			ds[j] = topology.NodeID(v)
		}
		var err error
		sets[i], err = core.NewMulticastSet(t, src, ds)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return sets
}

// The kernel benchmarks drive the Workspace methods the way the static
// study does: one warm workspace, reused across calls. After the first
// call on a topology the arrays are sized, so allocs/op must be 0 —
// TestWorkspaceKernelsAllocationFree enforces that live, and
// TestWriteHeuristicsBenchBaseline on the committed baseline.

// TestWorkspaceKernelsAllocationFree is the live form of the zero-alloc
// claim BENCH_heuristics.json records: once a workspace has seen a
// topology, SortedMP, GreedyST, GreedySTCarried and KMB allocate nothing
// per call on the 16x16 mesh and the 10-cube, over the benchmarks' sets.
func TestWorkspaceKernelsAllocationFree(t *testing.T) {
	m := topology.NewMesh2D(16, 16)
	h := topology.NewHypercube(10)
	mc, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := labeling.CubeHamiltonCycle(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		topo  RegionTopology
		cycle *labeling.HamiltonCycle
	}{{"mesh16x16", m, mc}, {"cube10", h, hc}} {
		sets := benchWorkload(t, tc.topo, 10, 64)
		g := TopologyGraph(tc.topo)
		terms := make([][]int, len(sets))
		for i, k := range sets {
			terms[i] = append(terms[i], int(k.Source))
			for _, d := range k.Dests {
				terms[i] = append(terms[i], int(d))
			}
		}
		for _, kernel := range []struct {
			name string
			run  func(ws *Workspace, i int) int
		}{
			{"SortedMP", func(ws *Workspace, i int) int { return ws.SortedMP(tc.topo, tc.cycle, sets[i]) }},
			{"GreedyST", func(ws *Workspace, i int) int { return ws.GreedyST(tc.topo, sets[i]) }},
			{"GreedySTCarried", func(ws *Workspace, i int) int { return ws.GreedySTCarried(tc.topo, sets[i]) }},
			{"KMB", func(ws *Workspace, i int) int { return ws.KMB(g, terms[i]) }},
		} {
			ws := NewWorkspace()
			// AllocsPerRun's own warm-up pass sizes the workspace.
			allocs := testing.AllocsPerRun(2, func() {
				for i := range sets {
					kernel.run(ws, i)
				}
			})
			if allocs != 0 {
				t.Errorf("%s on %s: %v allocations per pass over %d sets, want 0",
					kernel.name, tc.name, allocs, len(sets))
			}
		}
	}
}

func BenchmarkGreedyST(b *testing.B) {
	b.Run("mesh16x16", func(b *testing.B) {
		m := topology.NewMesh2D(16, 16)
		sets := benchWorkload(b, m, 10, 64)
		ws := NewWorkspace()
		ws.GreedyST(m, sets[0])
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			total += ws.GreedyST(m, sets[i%len(sets)])
		}
		_ = total
	})
	b.Run("cube10", func(b *testing.B) {
		h := topology.NewHypercube(10)
		sets := benchWorkload(b, h, 10, 64)
		ws := NewWorkspace()
		ws.GreedyST(h, sets[0])
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			total += ws.GreedyST(h, sets[i%len(sets)])
		}
		_ = total
	})
}

func BenchmarkGreedySTCarried(b *testing.B) {
	m := topology.NewMesh2D(16, 16)
	sets := benchWorkload(b, m, 10, 64)
	ws := NewWorkspace()
	ws.GreedySTCarried(m, sets[0])
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += ws.GreedySTCarried(m, sets[i%len(sets)])
	}
	_ = total
}

func BenchmarkKMB(b *testing.B) {
	m := topology.NewMesh2D(16, 16)
	g := TopologyGraph(m)
	rng := stats.NewRand(1990)
	terms := make([][]int, 64)
	for i := range terms {
		terms[i] = rng.Sample(m.Nodes(), 11)
	}
	ws := NewWorkspace()
	ws.KMB(g, terms[0])
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += ws.KMB(g, terms[i%len(terms)])
	}
	_ = total
}

func BenchmarkSortedMP(b *testing.B) {
	b.Run("mesh16x16", func(b *testing.B) {
		m := topology.NewMesh2D(16, 16)
		c, err := labeling.MeshHamiltonCycle(m)
		if err != nil {
			b.Fatal(err)
		}
		sets := benchWorkload(b, m, 10, 64)
		ws := NewWorkspace()
		ws.SortedMP(m, c, sets[0])
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			total += ws.SortedMP(m, c, sets[i%len(sets)])
		}
		_ = total
	})
	b.Run("cube10", func(b *testing.B) {
		h := topology.NewHypercube(10)
		c, err := labeling.CubeHamiltonCycle(h)
		if err != nil {
			b.Fatal(err)
		}
		sets := benchWorkload(b, h, 10, 64)
		ws := NewWorkspace()
		ws.SortedMP(h, c, sets[0])
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			total += ws.SortedMP(h, c, sets[i%len(sets)])
		}
		_ = total
	})
}
