package wormsim

import (
	"testing"
	"testing/quick"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// TestQuickSingleWormLatencyFormula property-checks the contention-free
// pipeline model over arbitrary routes: a lone worm of L flits over D
// channels always delivers its final destination in exactly D + L - 1
// cycles, and the network fully drains.
func TestQuickSingleWormLatencyFormula(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	f := func(rawSrc, rawDst uint8, rawLen uint8) bool {
		src := topology.NodeID(int(rawSrc) % m.Nodes())
		dst := topology.NodeID(int(rawDst) % m.Nodes())
		if src == dst {
			return true
		}
		length := 1 + int(rawLen)%200
		nodes := core.RoutePath(m, l, src, dst)
		n := NewNetwork(m)
		var got int64 = -1
		n.OnDelivery(func(_ topology.NodeID, c int64) { got = c })
		injectRoutes(n, []dfr.PathRoute{{Nodes: nodes, Dests: []topology.NodeID{dst}}}, nil, length)
		for n.ActiveWorms() > 0 {
			if !n.Step() {
				return false // a lone worm never stalls
			}
		}
		return got == int64(len(nodes)-1+length-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSerialWormsFIFO property-checks FIFO arbitration: two worms
// over the same route complete in injection order, with the second
// delayed by at least the first's channel-holding time on the shared
// first channel.
func TestQuickSerialWormsFIFO(t *testing.T) {
	m := topology.NewMesh2D(8, 1)
	f := func(rawLen uint8) bool {
		length := 2 + int(rawLen)%100
		route := []topology.NodeID{0, 1, 2, 3}
		n := NewNetwork(m)
		var order []topology.NodeID
		n.OnDelivery(func(d topology.NodeID, _ int64) { order = append(order, d) })
		injectRoutes(n, []dfr.PathRoute{{Nodes: route, Dests: []topology.NodeID{3}}}, nil, length)
		injectRoutes(n, []dfr.PathRoute{{Nodes: route[:3], Dests: []topology.NodeID{2}}}, nil, length)
		for n.ActiveWorms() > 0 {
			if !n.Step() {
				return false
			}
		}
		// First-injected worm delivers first despite its longer route.
		return len(order) == 2 && order[0] == 3 && order[1] == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestThroughputReported checks the throughput metric is populated and
// consistent with the delivery count.
func TestThroughputReported(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	res, err := Run(Config{
		Topology:               m,
		Route:                  schemeRoute(t, "dual-path", m, l),
		MeanInterarrivalMicros: 500,
		AvgDests:               5,
		Seed:                   2,
		BatchSize:              200,
		MinBatches:             5,
		MaxCycles:              200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputPerMs <= 0 {
		t.Errorf("throughput not reported: %+v", res)
	}
	// Offered rate: 64 nodes x (1/500us) multicasts x ~5 dests = ~0.64
	// deliveries/us = 640/ms. The measured rate must be the same order.
	if res.ThroughputPerMs < 100 || res.ThroughputPerMs > 2000 {
		t.Errorf("throughput %.1f/ms implausible", res.ThroughputPerMs)
	}
}
