package mcastsvc

import (
	"testing"

	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

func newMeshService(t *testing.T, scheme string) *Service {
	t.Helper()
	s, err := New(Config{Topology: topology.NewMesh2D(8, 8), SchemeName: scheme})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	// Rings are k-ary 1-cubes with a serpentine labeling: accepted, and
	// an empty SchemeName selects dual-path.
	if s, err := New(Config{Topology: topology.Ring(5)}); err != nil {
		t.Errorf("ring rejected: %v", err)
	} else if s.SchemeName() != "dual-path" {
		t.Errorf("empty SchemeName selected %q, want dual-path", s.SchemeName())
	}
	if _, err := New(Config{Topology: topology.NewMesh2D(4, 4), SchemeName: "no-such-scheme"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := New(Config{Topology: topology.NewMesh3D(3, 3, 3), SchemeName: "multi-path"}); err == nil {
		t.Error("multi-path on 3D mesh accepted")
	}
	if _, err := New(Config{Topology: topology.NewMesh3D(3, 3, 3), SchemeName: "dual-path"}); err != nil {
		t.Errorf("dual-path on 3D mesh rejected: %v", err)
	}
}

func TestGroupValidation(t *testing.T) {
	s := newMeshService(t, "dual-path")
	if _, err := s.NewGroup([]topology.NodeID{5}); err == nil {
		t.Error("single-member group accepted")
	}
	if _, err := s.NewGroup([]topology.NodeID{5, 5}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := s.NewGroup([]topology.NodeID{5, 99}); err == nil {
		t.Error("out-of-range member accepted")
	}
	g, err := s.NewGroup([]topology.NodeID{9, 3, 27})
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 || !g.Contains(27) || g.Contains(4) {
		t.Error("group membership wrong")
	}
	// Members come back sorted.
	m := g.Members()
	if m[0] != 3 || m[1] != 9 || m[2] != 27 {
		t.Errorf("members not sorted: %v", m)
	}
}

func TestMulticastCost(t *testing.T) {
	for _, scheme := range []string{"dual-path", "multi-path", "fixed-path"} {
		s := newMeshService(t, scheme)
		g, err := s.NewGroup([]topology.NodeID{3, 12, 45, 60})
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Multicast(27, g, 128)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if c.TrafficChannels <= 0 || c.MaxDistance <= 0 || c.Messages <= 0 {
			t.Errorf("%v: degenerate cost %+v", scheme, c)
		}
		// Contention-free wormhole latency: (hops + flits - 1) cycles.
		want := float64(c.MaxDistance+128-1) * (1.0 / 20)
		if c.LatencyMicros != want {
			t.Errorf("%v: latency %.3f, want %.3f", scheme, c.LatencyMicros, want)
		}
	}
}

func TestMulticastFromGroupMember(t *testing.T) {
	s := newMeshService(t, "dual-path")
	g, err := s.NewGroup([]topology.NodeID{3, 12, 45})
	if err != nil {
		t.Fatal(err)
	}
	// Source inside the group: it must not be treated as a destination.
	c, err := s.Multicast(12, g, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.TrafficChannels <= 0 {
		t.Error("no traffic for in-group multicast")
	}
}

func TestBroadcastCost(t *testing.T) {
	s := newMeshService(t, "fixed-path")
	c, err := s.Broadcast(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-path broadcast from label 0 walks the whole Hamiltonian
	// path: exactly N-1 channels — matching the broadcast baseline.
	if c.TrafficChannels != 63 {
		t.Errorf("fixed-path broadcast traffic %d, want 63", c.TrafficChannels)
	}
}

func TestBarrierCostAndSchemeOrdering(t *testing.T) {
	s := newMeshService(t, "dual-path")
	var members []topology.NodeID
	for v := topology.NodeID(0); v < 16; v++ {
		members = append(members, v*4)
	}
	g, err := s.NewGroup(members)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Barrier(0, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 15 gather tokens plus 1-2 release paths.
	if c.Messages < 16 || c.Messages > 17 {
		t.Errorf("barrier message count %d, want 16 or 17", c.Messages)
	}
	if c.LatencyMicros <= 0 {
		t.Error("zero barrier latency")
	}
	release, err := s.Multicast(0, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.TrafficChannels <= release.TrafficChannels {
		t.Error("barrier traffic should include the gather phase")
	}
	if _, err := s.Barrier(1, g, 8); err == nil {
		t.Error("coordinator outside group accepted")
	}
}

func TestReduceAndAllReduce(t *testing.T) {
	s := newMeshService(t, "dual-path")
	g, err := s.NewGroup([]topology.NodeID{0, 7, 56, 63})
	if err != nil {
		t.Fatal(err)
	}
	red, err := s.Reduce(0, g, 128)
	if err != nil {
		t.Fatal(err)
	}
	if red.TrafficChannels != 7+7+14 {
		t.Errorf("reduce traffic %d, want 28", red.TrafficChannels)
	}
	all, err := s.ReduceBroadcast(0, g, 128)
	if err != nil {
		t.Fatal(err)
	}
	if all.TrafficChannels <= red.TrafficChannels {
		t.Error("allreduce should cost more than reduce")
	}
	if all.LatencyMicros <= red.LatencyMicros {
		t.Error("allreduce latency should exceed reduce latency")
	}
	if _, err := s.Reduce(1, g, 0); err == nil {
		t.Error("root outside group accepted")
	}
}

func TestSimulatedPrimitivesDrain(t *testing.T) {
	rng := stats.NewRand(5)
	for _, scheme := range []string{"dual-path", "multi-path"} {
		s := newMeshService(t, scheme)
		raw := rng.Sample(64, 12)
		members := make([]topology.NodeID, len(raw))
		for i, v := range raw {
			members[i] = topology.NodeID(v)
		}
		g, err := s.NewGroup(members)
		if err != nil {
			t.Fatal(err)
		}
		coord := g.Members()[0]

		mc, err := s.SimulateMulticast(coord, g, 128)
		if err != nil {
			t.Fatal(err)
		}
		if mc.Deadlocked || mc.CompletionMicros <= 0 {
			t.Fatalf("%v: multicast simulation failed: %+v", scheme, mc)
		}
		// The contention-free estimate is a lower bound; for dual-path the
		// two paths occupy disjoint channel directions, so on an idle
		// network it is tight. Multi-path routes can contend with each
		// other near the source (the hot-spot effect in miniature), so
		// only the bound holds there.
		est, err := s.Multicast(coord, g, 128)
		if err != nil {
			t.Fatal(err)
		}
		if mc.CompletionMicros < est.LatencyMicros*0.99 {
			t.Errorf("%v: simulated %.2f us below contention-free bound %.2f us",
				scheme, mc.CompletionMicros, est.LatencyMicros)
		}
		if scheme == "dual-path" && mc.CompletionMicros > est.LatencyMicros*1.01 {
			t.Errorf("dual-path: simulated %.2f us vs tight estimate %.2f us",
				mc.CompletionMicros, est.LatencyMicros)
		}

		bar, err := s.SimulateBarrier(coord, g, 8)
		if err != nil {
			t.Fatal(err)
		}
		if bar.Deadlocked || len(bar.Phases) != 2 {
			t.Fatalf("%v: barrier simulation failed: %+v", scheme, bar)
		}
		// The simulated gather sees convergecast contention, so it can
		// only be at least the closed-form estimate.
		estBar, err := s.Barrier(coord, g, 8)
		if err != nil {
			t.Fatal(err)
		}
		if bar.CompletionMicros < estBar.LatencyMicros*0.9 {
			t.Errorf("%v: simulated barrier %.2f us below estimate %.2f us",
				scheme, bar.CompletionMicros, estBar.LatencyMicros)
		}

		ar, err := s.SimulateAllReduce(coord, g, 64)
		if err != nil {
			t.Fatal(err)
		}
		if ar.Deadlocked || len(ar.Phases) != 2 {
			t.Fatalf("%v: allreduce simulation failed: %+v", scheme, ar)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	s := newMeshService(t, "dual-path")
	g, err := s.NewGroup([]topology.NodeID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SimulateBarrier(9, g, 8); err == nil {
		t.Error("coordinator outside group accepted")
	}
	if _, err := s.SimulateAllReduce(9, g, 8); err == nil {
		t.Error("root outside group accepted")
	}
}
