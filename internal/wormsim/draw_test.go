package wormsim

import (
	"slices"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// sampleMulticast is the reference draw: the map-based stats.Rand.Sample
// plus core.MustMulticastSet that paperSource used before its node marks.
func sampleMulticast(t topology.Topology, rng *stats.Rand, src topology.NodeID, avg int) core.MulticastSet {
	if avg < 0 {
		raw := rng.Sample(t.Nodes(), 1, int(src))
		return core.MustMulticastSet(t, src, []topology.NodeID{topology.NodeID(raw[0])})
	}
	maxK := 2*avg - 1
	if maxK > t.Nodes()-1 {
		maxK = t.Nodes() - 1
	}
	k := 1
	if maxK > 1 {
		k = 1 + rng.Intn(maxK)
	}
	raw := rng.Sample(t.Nodes(), k, int(src))
	dests := make([]topology.NodeID, k)
	for i, v := range raw {
		dests[i] = topology.NodeID(v)
	}
	return core.MustMulticastSet(t, src, dests)
}

// TestPaperSourceMatchesSample runs paperSource.Next beside a copy of it
// that draws through sampleMulticast, from the same seed: every request
// must match, and the two generators must end in the same state. The
// destination counts cover unicast-sized, mid and large sets and one
// that clamps to every other node, each with and without unicasts mixed
// in.
func TestPaperSourceMatchesSample(t *testing.T) {
	const draws = 10000
	topo := topology.NewMesh2D(8, 8)
	for _, avg := range []int{1, 5, 45, 100} {
		for _, unicast := range []float64{0, 0.3} {
			cfg := &Config{Topology: topo, Seed: 17, MeanInterarrivalMicros: 300,
				AvgDests: avg, UnicastFraction: unicast}
			src, ref := newPaperSource(cfg), newPaperSource(cfg)
			for i := 0; i < draws; i++ {
				got, _ := src.Next()
				ev := ref.spawns.pop()
				at := ev.at
				ev.at += int64(ref.rng.ExpFloat64(ref.inter)) + 1
				a := ref.avgDests
				if ref.unicast > 0 && ref.rng.Float64() < ref.unicast {
					a = -1
				}
				want := sampleMulticast(topo, ref.rng, topology.NodeID(ev.node), a)
				ref.spawns.push(ev)
				if got.At != at || got.Src != want.Source || !slices.Equal(got.Dests, want.Dests) {
					t.Fatalf("avg %d unicast %.1f draw %d: got %d@%d %v, reference %d@%d %v",
						avg, unicast, i, got.Src, got.At, got.Dests, want.Source, at, want.Dests)
				}
			}
			if g, w := src.rng.Uint64(), ref.rng.Uint64(); g != w {
				t.Fatalf("avg %d unicast %.1f: generator state after %d draws differs: next Uint64 %d, reference %d",
					avg, unicast, draws, g, w)
			}
		}
	}
}

// TestPaperSourceAllocations pins one allocation per multicast: the
// request's own destination slice.
func TestPaperSourceAllocations(t *testing.T) {
	src := newPaperSource(&Config{Topology: topology.NewMesh2D(8, 8), Seed: 3,
		MeanInterarrivalMicros: 300, AvgDests: 10, UnicastFraction: 0.3})
	if got := testing.AllocsPerRun(1000, func() { src.Next() }); got != 1 {
		t.Fatalf("paperSource.Next allocates %.2f objects per multicast, want 1", got)
	}
}
